/**
 * @file
 * Unit and property tests for task automata and their instances:
 * fork/join token semantics (paper Fig. 3 / Table 1), acceptance of
 * all linear extensions, and false-dependency removal (paper Fig. 4);
 * and the per-template event index, held to the scans it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "core/automaton/automaton_instance.hpp"
#include "core/mining/dependency_miner.hpp"
#include "eval/modeling_harness.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::makeLetterAutomaton;

namespace {

/** The paper's Figure 3 boot automaton (simplified): a chain into a
 *  fork (GET || Starting) joining on Spawned. */
TaskAutomaton
figure3(LetterCatalog &letters)
{
    // A=accepted, P=POST, S=scheduling, G=GET, T=starting, W=spawned.
    return makeLetterAutomaton(letters, "boot",
                               {"A", "P", "S", "G", "T", "W"},
                               {{"A", "P"},
                                {"P", "S"},
                                {"S", "G"},
                                {"S", "T"},
                                {"G", "W"},
                                {"T", "W"}});
}

} // namespace

TEST(TaskAutomaton, StructuralQueries)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    EXPECT_EQ(automaton.eventCount(), 6u);
    EXPECT_EQ(automaton.edgeCount(), 6u);
    ASSERT_EQ(automaton.initialEvents().size(), 1u);
    EXPECT_EQ(automaton.event(automaton.initialEvents()[0]).tpl,
              letters.id("A"));
    ASSERT_EQ(automaton.finalEvents().size(), 1u);
    EXPECT_EQ(automaton.event(automaton.finalEvents()[0]).tpl,
              letters.id("W"));

    // S is the fork (q3 in the paper), W the join (q6).
    auto forks = automaton.forkStates();
    ASSERT_EQ(forks.size(), 1u);
    EXPECT_EQ(automaton.event(forks[0]).tpl, letters.id("S"));
    auto joins = automaton.joinStates();
    ASSERT_EQ(joins.size(), 1u);
    EXPECT_EQ(automaton.event(joins[0]).tpl, letters.id("W"));
}

TEST(TaskAutomaton, TemplateLookup)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    EXPECT_TRUE(automaton.containsTemplate(letters.id("G")));
    EXPECT_FALSE(automaton.containsTemplate(letters.id("Z")));
    EXPECT_EQ(automaton.eventsForTemplate(letters.id("T")).size(), 1u);
    EXPECT_TRUE(automaton.eventsForTemplate(letters.id("Z")).empty());
}

TEST(TaskAutomaton, DotRenderingMentionsEveryEvent)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    std::string dot = automaton.toDot(*letters.catalog);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    for (const char *name : {"A", "P", "S", "G", "T", "W"})
        EXPECT_NE(dot.find(std::string("svc: ") + name),
                  std::string::npos);
}

TEST(TaskAutomaton, SameStructureDetectsChange)
{
    LetterCatalog letters;
    TaskAutomaton a = figure3(letters);
    TaskAutomaton b = figure3(letters);
    EXPECT_TRUE(a.sameStructure(b));
    TaskAutomaton c = makeLetterAutomaton(
        letters, "boot", {"A", "P", "S", "G", "T", "W"},
        {{"A", "P"}, {"P", "S"}, {"S", "G"}, {"S", "T"}, {"G", "W"}});
    EXPECT_FALSE(a.sameStructure(c));
}

TEST(AutomatonInstance, PaperTable1Walkthrough)
{
    // Instance transitions mirror Table 1 rows for sequence "1".
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance instance(&automaton);

    EXPECT_FALSE(instance.started());
    EXPECT_TRUE(instance.consume(letters.id("A"))); // {q0} -> {q1}
    EXPECT_TRUE(instance.consume(letters.id("P"))); // -> {q2}
    EXPECT_TRUE(instance.consume(letters.id("S"))); // -> {q3}

    // Fork: T (Starting) arrives first -> {q3, q5}.
    EXPECT_TRUE(instance.consume(letters.id("T")));
    {
        auto frontier = instance.frontier();
        std::vector<logging::TemplateId> tpls;
        for (int e : frontier)
            tpls.push_back(automaton.event(e).tpl);
        std::sort(tpls.begin(), tpls.end());
        std::vector<logging::TemplateId> expected = {letters.id("S"),
                                                     letters.id("T")};
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(tpls, expected) << "state {q3, q5}";
    }

    // W (Spawned) must wait for the other branch.
    EXPECT_FALSE(instance.canConsume(letters.id("W")));
    EXPECT_TRUE(instance.consume(letters.id("G"))); // -> {q4, q5}
    EXPECT_TRUE(instance.consume(letters.id("W"))); // join -> {q6}
    EXPECT_TRUE(instance.accepting());
    EXPECT_TRUE(instance.frontier().empty());
}

TEST(AutomatonInstance, RejectsOutOfOrder)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance instance(&automaton);
    EXPECT_FALSE(instance.canConsume(letters.id("P")));
    EXPECT_FALSE(instance.consume(letters.id("P")));
    EXPECT_FALSE(instance.consume(letters.id("Z")));
    EXPECT_TRUE(instance.consume(letters.id("A")));
    EXPECT_FALSE(instance.consume(letters.id("A"))) << "no re-consume";
}

TEST(AutomatonInstance, ExpectedTemplates)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance instance(&automaton);
    instance.consume(letters.id("A"));
    instance.consume(letters.id("P"));
    instance.consume(letters.id("S"));
    auto expected = instance.expectedTemplates();
    std::sort(expected.begin(), expected.end());
    std::vector<logging::TemplateId> want = {letters.id("G"),
                                             letters.id("T")};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(expected, want);
}

TEST(AutomatonInstance, RepeatedTemplateOccurrences)
{
    LetterCatalog letters;
    // A -> B -> A(second occurrence).
    std::vector<EventNode> events = {{letters.id("A"), 0},
                                     {letters.id("B"), 0},
                                     {letters.id("A"), 1}};
    std::vector<DependencyEdge> edges = {{0, 1, true}, {1, 2, true}};
    TaskAutomaton automaton("rep", std::move(events), std::move(edges));
    AutomatonInstance instance(&automaton);
    EXPECT_TRUE(instance.consume(letters.id("A")));
    EXPECT_FALSE(instance.canConsume(letters.id("A")))
        << "second A is blocked until B";
    EXPECT_TRUE(instance.consume(letters.id("B")));
    EXPECT_TRUE(instance.consume(letters.id("A")));
    EXPECT_TRUE(instance.accepting());
}

TEST(AutomatonInstance, SameStateComparison)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance a(&automaton);
    AutomatonInstance b(&automaton);
    EXPECT_TRUE(a.sameState(b));
    a.consume(letters.id("A"));
    EXPECT_FALSE(a.sameState(b));
    b.consume(letters.id("A"));
    EXPECT_TRUE(a.sameState(b));
}

TEST(AutomatonInstance, FalseDependencyRemovalFigure4)
{
    // Paper Figure 4: chain A->B->C->D; sequence ACBD arrives.
    LetterCatalog letters;
    TaskAutomaton automaton = makeLetterAutomaton(
        letters, "fig4", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});
    AutomatonInstance instance(&automaton);

    EXPECT_TRUE(instance.consume(letters.id("A")));
    EXPECT_FALSE(instance.canConsume(letters.id("C")));

    // Remove the false dependency B -> C (with weakening A->C, B->D).
    EXPECT_TRUE(instance.removeFalseDependencies(letters.id("C")));
    EXPECT_EQ(instance.removedDependencyCount(), 1u);
    EXPECT_TRUE(instance.consume(letters.id("C")));

    // D must still wait for B (the weakened B -> D dependency).
    EXPECT_FALSE(instance.canConsume(letters.id("D")));
    EXPECT_TRUE(instance.consume(letters.id("B")));
    EXPECT_TRUE(instance.consume(letters.id("D")));
    EXPECT_TRUE(instance.accepting());
}

TEST(AutomatonInstance, FalseDependencyCascade)
{
    // Sequence DABC against chain A->B->C->D: enabling D requires
    // removing every blocking ancestor edge.
    LetterCatalog letters;
    TaskAutomaton automaton = makeLetterAutomaton(
        letters, "chain", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});
    AutomatonInstance instance(&automaton);
    EXPECT_TRUE(instance.removeFalseDependencies(letters.id("D")));
    EXPECT_TRUE(instance.consume(letters.id("D")));
    // The rest still arrives in order and is accepted.
    EXPECT_TRUE(instance.consume(letters.id("A")));
    EXPECT_TRUE(instance.consume(letters.id("B")));
    EXPECT_TRUE(instance.consume(letters.id("C")));
    EXPECT_TRUE(instance.accepting());
}

TEST(AutomatonInstance, RemovalOnUnknownTemplateFails)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance instance(&automaton);
    instance.consume(letters.id("A"));
    EXPECT_FALSE(instance.removeFalseDependencies(letters.id("Z")));
    EXPECT_EQ(instance.removedDependencyCount(), 0u);
}

TEST(AutomatonInstance, RemovalOnEnabledEventIsNoop)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance instance(&automaton);
    EXPECT_TRUE(instance.removeFalseDependencies(letters.id("A")));
    EXPECT_EQ(instance.removedDependencyCount(), 0u);
}

TEST(AutomatonInstance, ConsumeRecordsFlagsStampsAndLastEvent)
{
    LetterCatalog letters;
    TaskAutomaton automaton = figure3(letters);
    AutomatonInstance instance(&automaton);
    EXPECT_EQ(instance.lastConsumedEvent(), -1);
    EXPECT_FALSE(instance.started());
    EXPECT_EQ(instance.totalEvents(), 6u);

    EXPECT_TRUE(instance.consume(letters.id("A"), 1.5));
    EXPECT_FALSE(instance.consume(letters.id("S"), 2.0)) << "P first";
    EXPECT_TRUE(instance.consume(letters.id("P"), 2.5));
    const int a = automaton.eventsForTemplate(letters.id("A"))[0];
    const int p = automaton.eventsForTemplate(letters.id("P"))[0];
    EXPECT_TRUE(instance.started());
    EXPECT_EQ(instance.consumedCount(), 2u);
    EXPECT_EQ(instance.lastConsumedEvent(), p);
    ASSERT_EQ(instance.consumedFlags().size(), 6u);
    ASSERT_EQ(instance.consumeTimes().size(), 6u);
    for (int e = 0; e < 6; ++e) {
        const bool fired = e == a || e == p;
        EXPECT_EQ(instance.consumedFlags()[static_cast<std::size_t>(e)] != 0,
                  fired);
        EXPECT_EQ(instance.consumeTimes()[static_cast<std::size_t>(e)],
                  e == a ? 1.5 : e == p ? 2.5 : 0.0);
    }
}

TEST(AutomatonInstance, CascadeRecordsEveryRemovedEdgeInOrder)
{
    // Enabling D first in A->B->C->D removes C->D, then the weakened
    // B->D, then the weakened A->D.
    LetterCatalog letters;
    TaskAutomaton automaton = makeLetterAutomaton(
        letters, "chain", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});
    auto id = [&](const char *letter) {
        return automaton.eventsForTemplate(letters.id(letter))[0];
    };
    AutomatonInstance instance(&automaton);
    ASSERT_TRUE(instance.removeFalseDependencies(letters.id("D")));
    const std::vector<std::pair<int, int>> expected = {
        {id("C"), id("D")}, {id("B"), id("D")}, {id("A"), id("D")}};
    const auto removed = instance.removedDependencies();
    const std::vector<std::pair<int, int>> actual(removed.begin(),
                                                  removed.end());
    EXPECT_EQ(actual, expected);
    EXPECT_TRUE(instance.canConsume(letters.id("D")));
    EXPECT_TRUE(instance.canConsume(letters.id("A")));
    EXPECT_FALSE(instance.canConsume(letters.id("B")));
    // The shared specification is untouched.
    EXPECT_EQ(automaton.preds(id("D")), std::vector<int>{id("C")});
}

namespace {

std::string
savedBytes(const AutomatonInstance &instance)
{
    common::BinWriter out;
    instance.saveState(out);
    return out.bytes();
}

} // namespace

TEST(AutomatonInstance, SaveRestoreRoundTripKeepsRepairState)
{
    LetterCatalog letters;
    TaskAutomaton automaton = makeLetterAutomaton(
        letters, "fig4", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});
    AutomatonInstance original(&automaton);
    ASSERT_TRUE(original.consume(letters.id("A"), 1.0));
    ASSERT_TRUE(original.removeFalseDependencies(letters.id("C")));
    ASSERT_TRUE(original.consume(letters.id("C"), 2.0));
    const std::string image = savedBytes(original);

    AutomatonInstance restored(&automaton);
    common::BinReader in(image);
    ASSERT_TRUE(restored.restoreState(in));
    EXPECT_EQ(savedBytes(restored), image);
    EXPECT_TRUE(restored.sameState(original));
    EXPECT_EQ(restored.removedDependencyCount(), 1u);
    EXPECT_EQ(restored.approxRetainedBytes(), original.approxRetainedBytes());
    // Restored adjacency behaves like the original's: D waits for B.
    EXPECT_FALSE(restored.canConsume(letters.id("D")));
    EXPECT_TRUE(restored.consume(letters.id("B"), 3.0));
    EXPECT_TRUE(restored.consume(letters.id("D"), 4.0));
    EXPECT_TRUE(restored.accepting());

    // Restoring a repair-free image drops the repair state again.
    AutomatonInstance clean(&automaton);
    const std::string clean_image = savedBytes(clean);
    common::BinReader clean_in(clean_image);
    ASSERT_TRUE(restored.restoreState(clean_in));
    EXPECT_EQ(savedBytes(restored), clean_image);
    EXPECT_EQ(restored.removedDependencyCount(), 0u);

    // An adjacency entry that names no event is refused.
    common::BinWriter forged;
    forged.writeU64(4);
    for (int e = 0; e < 4; ++e)
        forged.writeU8(0);
    for (int e = 0; e < 4; ++e)
        forged.writeF64(0.0);
    for (int remaining : {0, 1, 1, 1})
        forged.writeI64(remaining);
    forged.writeU64(0);  // consumed
    forged.writeI64(-1); // last event
    forged.writeU64(0);  // removed edges
    forged.writeBool(true);
    for (int side = 0; side < 2; ++side) {
        for (int e = 0; e < 4; ++e) {
            forged.writeU64(1);
            forged.writeI64(e == 2 ? 7 : 0);
        }
    }
    AutomatonInstance target(&automaton);
    common::BinReader forged_in(forged.bytes());
    EXPECT_FALSE(target.restoreState(forged_in));
    EXPECT_FALSE(forged_in.ok());

    // An image of another model is refused.
    TaskAutomaton other = figure3(letters);
    AutomatonInstance mismatched(&other);
    common::BinReader bad(image);
    EXPECT_FALSE(mismatched.restoreState(bad));
    EXPECT_FALSE(bad.ok());
}

TEST(AutomatonInstance, CopiesAreIndependent)
{
    LetterCatalog letters;
    TaskAutomaton automaton = makeLetterAutomaton(
        letters, "fig4", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});
    AutomatonInstance original(&automaton);
    ASSERT_TRUE(original.consume(letters.id("A"), 1.0));
    ASSERT_TRUE(original.removeFalseDependencies(letters.id("C")));
    const std::string before = savedBytes(original);

    AutomatonInstance copy = original;
    EXPECT_EQ(savedBytes(copy), before);
    ASSERT_TRUE(copy.consume(letters.id("C"), 2.0));
    ASSERT_TRUE(copy.removeFalseDependencies(letters.id("D")));
    ASSERT_TRUE(copy.consume(letters.id("D"), 3.0));
    EXPECT_EQ(savedBytes(original), before);
    EXPECT_EQ(original.removedDependencyCount(), 1u);
    EXPECT_GT(copy.removedDependencyCount(), 1u);

    AutomatonInstance assigned(&automaton);
    assigned = copy;
    EXPECT_EQ(savedBytes(assigned), savedBytes(copy));
    ASSERT_TRUE(assigned.consume(letters.id("B"), 4.0));
    EXPECT_TRUE(assigned.accepting());
    EXPECT_FALSE(copy.accepting());
}

TEST(AutomatonInstance, RepairHandlesRepeatedAndSelfEdges)
{
    // A model file may repeat an edge or hold a self edge (seer-lint
    // reports both as errors but loads them). Repairs over such a model
    // stay inside the instance's adjacency, count every copy of a
    // removed edge, and save and restore lists longer than the event
    // count.
    LetterCatalog letters;
    const std::pair<std::string, std::string> ab{"A", "B"};
    TaskAutomaton repeated = makeLetterAutomaton(
        letters, "repeated", {"A", "B", "C"},
        {ab, ab, ab, ab, ab, {"B", "C"}});

    // C before A and B: the repair pulls A -> C in and removes it
    // again, leaving A's five copies of A -> B in place.
    AutomatonInstance early_c(&repeated);
    ASSERT_TRUE(early_c.removeFalseDependencies(letters.id("C")));
    ASSERT_TRUE(early_c.consume(letters.id("C"), 1.0));
    const std::string image = savedBytes(early_c);
    AutomatonInstance restored(&repeated);
    common::BinReader in(image);
    ASSERT_TRUE(restored.restoreState(in));
    EXPECT_EQ(savedBytes(restored), image);
    EXPECT_FALSE(restored.canConsume(letters.id("B")));
    EXPECT_TRUE(restored.consume(letters.id("A"), 2.0));
    EXPECT_TRUE(restored.consume(letters.id("B"), 3.0));
    EXPECT_TRUE(restored.accepting());

    // B before A: removing A -> B drops all five copies at once.
    AutomatonInstance early_b(&repeated);
    ASSERT_TRUE(early_b.removeFalseDependencies(letters.id("B")));
    ASSERT_TRUE(early_b.consume(letters.id("B"), 1.0));
    ASSERT_EQ(early_b.removedDependencyCount(), 1u);
    EXPECT_FALSE(early_b.canConsume(letters.id("C"))) << "C waits for A";
    EXPECT_TRUE(early_b.consume(letters.id("A"), 2.0));
    EXPECT_TRUE(early_b.consume(letters.id("C"), 3.0));
    EXPECT_TRUE(early_b.accepting());

    // A self edge blocks its event until a repair removes it.
    TaskAutomaton looped = makeLetterAutomaton(
        letters, "looped", {"A", "B"}, {{"A", "B"}, {"B", "B"}});
    AutomatonInstance self(&looped);
    ASSERT_TRUE(self.consume(letters.id("A"), 1.0));
    EXPECT_FALSE(self.canConsume(letters.id("B")));
    ASSERT_TRUE(self.removeFalseDependencies(letters.id("B")));
    EXPECT_TRUE(self.consume(letters.id("B"), 2.0));
    EXPECT_TRUE(self.accepting());
    AutomatonInstance self_restored(&looped);
    const std::string self_image = savedBytes(self);
    common::BinReader self_in(self_image);
    ASSERT_TRUE(self_restored.restoreState(self_in));
    EXPECT_EQ(savedBytes(self_restored), self_image);
}

TEST(InstanceArena, NarrowingKeepsRepairStateWithItsInstance)
{
    // Three instances; the third is repaired before the second, so
    // their repair slots are in reverse order. Dropping the first must
    // leave each survivor with its own repair state and slice.
    LetterCatalog letters;
    TaskAutomaton chain = makeLetterAutomaton(
        letters, "chain", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});
    TaskAutomaton boot = figure3(letters);
    InstanceArena arena;
    arena.add(&boot);
    arena.add(&chain);
    arena.add(&chain);
    ASSERT_TRUE(arena.consume(1, letters.id("A"), 1.0));
    ASSERT_TRUE(arena.removeFalseDependencies(2, letters.id("D")));
    ASSERT_TRUE(arena.consume(2, letters.id("D"), 2.0));
    ASSERT_TRUE(arena.removeFalseDependencies(1, letters.id("C")));
    auto image = [&arena](std::size_t i) {
        common::BinWriter out;
        arena.saveState(i, out);
        return out.bytes();
    };
    const std::string second = image(1);
    const std::string third = image(2);

    arena.retainIf([](std::size_t i) { return i != 0; });
    ASSERT_EQ(arena.size(), 2u);
    EXPECT_EQ(&arena.automaton(0), &chain);
    EXPECT_EQ(image(0), second);
    EXPECT_EQ(image(1), third);
    EXPECT_EQ(arena.removedDependencies(0).size(), 1u);
    EXPECT_EQ(arena.removedDependencies(1).size(), 3u);
    EXPECT_TRUE(arena.consume(0, letters.id("C"), 3.0));
    EXPECT_TRUE(arena.consume(1, letters.id("A"), 3.0));
}

// ---------------------------------------------------------------------
// Property: an automaton mined from a set of sequences accepts every
// linear extension of the mined partial order — and in particular all
// of its own training sequences.
// ---------------------------------------------------------------------

class LinearExtensionProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LinearExtensionProperty, AcceptsTrainingAndRandomExtensions)
{
    common::Rng rng(GetParam());
    LetterCatalog letters;

    // Random series-parallel-ish workload: a chain with one fork block.
    int pre = rng.uniformInt(1, 3);
    int branch_a = rng.uniformInt(1, 3);
    int branch_b = rng.uniformInt(1, 3);
    int post = rng.uniformInt(1, 2);
    std::vector<std::string> pre_names, a_names, b_names, post_names;
    int next_letter = 0;
    auto fresh = [&next_letter]() {
        return std::string(1, static_cast<char>('A' + next_letter++));
    };
    for (int i = 0; i < pre; ++i)
        pre_names.push_back(fresh());
    for (int i = 0; i < branch_a; ++i)
        a_names.push_back(fresh());
    for (int i = 0; i < branch_b; ++i)
        b_names.push_back(fresh());
    for (int i = 0; i < post; ++i)
        post_names.push_back(fresh());

    // Generate training sequences by randomly interleaving branches.
    auto generate = [&]() {
        std::vector<std::string> out = pre_names;
        std::size_t ia = 0, ib = 0;
        while (ia < a_names.size() || ib < b_names.size()) {
            bool take_a = ib >= b_names.size() ||
                          (ia < a_names.size() && rng.chance(0.5));
            out.push_back(take_a ? a_names[ia++] : b_names[ib++]);
        }
        for (const std::string &name : post_names)
            out.push_back(name);
        return out;
    };

    std::vector<core::TemplateSequence> runs;
    std::vector<std::vector<std::string>> raw_runs;
    for (int r = 0; r < 30; ++r) {
        auto run = generate();
        raw_runs.push_back(run);
        core::TemplateSequence seq;
        for (const std::string &name : run)
            seq.push_back(letters.id(name));
        runs.push_back(seq);
    }

    MinedModel mined = mineDependencies(runs);
    TaskAutomaton automaton("prop", std::move(mined.events),
                            std::move(mined.edges));

    // Every training sequence must be accepted.
    for (const auto &run : raw_runs) {
        AutomatonInstance instance(&automaton);
        for (const std::string &name : run)
            ASSERT_TRUE(instance.consume(letters.id(name)));
        EXPECT_TRUE(instance.accepting());
    }

    // And fresh random interleavings (linear extensions) as well.
    for (int r = 0; r < 20; ++r) {
        auto run = generate();
        AutomatonInstance instance(&automaton);
        for (const std::string &name : run)
            ASSERT_TRUE(instance.consume(letters.id(name)));
        EXPECT_TRUE(instance.accepting());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkflows, LinearExtensionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- per-template event index vs the scans it replaced ------------------

namespace {

/** Verbatim copy of InstanceArena::nextPendingEvent's scan before the
 *  per-template index (the reference for the index's lookup). */
int
referenceNextPendingEvent(const TaskAutomaton &spec, const char *flags,
                          logging::TemplateId tpl)
{
    int best = -1;
    int best_occurrence = 0;
    for (std::size_t i = 0; i < spec.eventCount(); ++i) {
        if (flags[i])
            continue;
        const EventNode &node = spec.event(static_cast<int>(i));
        if (node.tpl != tpl)
            continue;
        if (best == -1 || node.occurrence < best_occurrence) {
            best = static_cast<int>(i);
            best_occurrence = node.occurrence;
        }
    }
    return best;
}

/** The old containsTemplate loop. */
bool
referenceContainsTemplate(const TaskAutomaton &spec,
                          logging::TemplateId tpl)
{
    for (std::size_t i = 0; i < spec.eventCount(); ++i) {
        if (spec.event(static_cast<int>(i)).tpl == tpl)
            return true;
    }
    return false;
}

/** The old eventsForTemplate loop, with its occurrence ties ordered
 *  by id (its std::sort left them unordered). */
std::vector<int>
referenceEventsForTemplate(const TaskAutomaton &spec,
                           logging::TemplateId tpl)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < spec.eventCount(); ++i) {
        if (spec.event(static_cast<int>(i)).tpl == tpl)
            out.push_back(static_cast<int>(i));
    }
    std::stable_sort(out.begin(), out.end(), [&spec](int a, int b) {
        return spec.event(a).occurrence < spec.event(b).occurrence;
    });
    return out;
}

/** Every template of Σ, one template outside it, and the invalid id. */
std::vector<logging::TemplateId>
probeTemplates(const TaskAutomaton &spec)
{
    std::vector<logging::TemplateId> out;
    logging::TemplateId largest = 0;
    for (std::size_t i = 0; i < spec.eventCount(); ++i) {
        logging::TemplateId tpl = spec.event(static_cast<int>(i)).tpl;
        if (std::find(out.begin(), out.end(), tpl) == out.end())
            out.push_back(tpl);
        largest = std::max(largest, tpl);
    }
    out.push_back(largest + 1);
    out.push_back(logging::kInvalidTemplate);
    return out;
}

/** The 8 mined Table 2 automata. */
const std::vector<TaskAutomaton> &
minedAutomata()
{
    static const eval::ModeledSystem system = [] {
        eval::ModelingConfig config;
        config.minRuns = 40;
        config.maxRuns = 150;
        return eval::buildModels(config);
    }();
    return system.automata;
}

/**
 * Templates repeated at occurrences 0…3, listed out of occurrence
 * order, with a fork and a join: A#2 and A#3 run in parallel with B#1.
 */
TaskAutomaton
repeatedOccurrences(LetterCatalog &letters)
{
    const logging::TemplateId a = letters.id("A");
    const logging::TemplateId b = letters.id("B");
    const logging::TemplateId c = letters.id("C");
    std::vector<EventNode> events = {
        {a, 3}, {b, 1}, {a, 0}, {c, 0}, {a, 2}, {b, 0}, {a, 1}, {c, 1}};
    // A#0 -> B#0 -> A#1 -> C#0 -> {A#2 -> A#3, B#1} -> C#1
    std::vector<DependencyEdge> edges = {
        {2, 5, false}, {5, 6, false}, {6, 3, false}, {3, 4, false},
        {3, 1, false}, {4, 0, false}, {0, 7, false}, {1, 7, false}};
    return TaskAutomaton("repeated", std::move(events), std::move(edges));
}

/**
 * Duplicate (template, occurrence) pairs, which seer-lint's SL007
 * refuses at load; built directly, they must still resolve to the
 * lowest id among the tied events.
 */
TaskAutomaton
duplicatePairs(LetterCatalog &letters)
{
    const logging::TemplateId a = letters.id("A");
    const logging::TemplateId b = letters.id("B");
    const logging::TemplateId d = letters.id("D");
    std::vector<EventNode> events = {{a, 0}, {b, 1}, {b, 0}, {b, 0},
                                     {d, 0}, {b, 1}, {a, 0}};
    std::vector<DependencyEdge> edges = {
        {0, 2, false}, {0, 3, false}, {2, 1, false}, {3, 5, false},
        {1, 4, false}, {5, 4, false}, {4, 6, false}};
    return TaskAutomaton("duplicates", std::move(events),
                         std::move(edges));
}

/** Index lookups and the two template queries against the old loops,
 *  for every probe template over `subsets` seeded random consumed
 *  sets. */
void
checkIndexAgainstScans(const TaskAutomaton &spec, std::uint64_t seed,
                       int subsets)
{
    SCOPED_TRACE(spec.name());
    const std::vector<logging::TemplateId> probes = probeTemplates(spec);
    for (logging::TemplateId tpl : probes) {
        EXPECT_EQ(spec.containsTemplate(tpl),
                  referenceContainsTemplate(spec, tpl))
            << "template " << tpl;
        std::span<const int> indexed = spec.eventsForTemplate(tpl);
        EXPECT_EQ(std::vector<int>(indexed.begin(), indexed.end()),
                  referenceEventsForTemplate(spec, tpl))
            << "template " << tpl;
    }
    common::Rng rng(seed);
    std::vector<char> flags(spec.eventCount());
    for (int s = 0; s < subsets; ++s) {
        // Densities from empty to full, so that runs are found pending
        // at their start, middle and end, and exhausted.
        const double density = static_cast<double>(s % 11) / 10.0;
        for (char &flag : flags)
            flag = rng.chance(density) ? 1 : 0;
        for (logging::TemplateId tpl : probes) {
            ASSERT_EQ(spec.nextPendingEvent(tpl, flags.data()),
                      referenceNextPendingEvent(spec, flags.data(), tpl))
                << "template " << tpl << ", subset " << s;
        }
    }
}

/**
 * Drive an instance through `steps` seeded random templates of Σ,
 * consuming when enabled and otherwise repairing (recovery d) and
 * then consuming, and check at every state that each probe template's
 * canConsume, consume and removeFalseDependencies take the event the
 * reference scan names over the instance's consumed flags. Adds the
 * edges the walk removed to `repaired`.
 */
void
checkInstanceAgainstScan(const TaskAutomaton &spec, std::uint64_t seed,
                         int steps, std::size_t &repaired)
{
    SCOPED_TRACE(spec.name());
    const std::vector<logging::TemplateId> probes = probeTemplates(spec);
    common::Rng rng(seed);
    AutomatonInstance instance(&spec);
    for (int step = 0; step < steps && !instance.accepting(); ++step) {
        for (logging::TemplateId tpl : probes) {
            const int want = referenceNextPendingEvent(
                spec, instance.consumedFlags().data(), tpl);
            AutomatonInstance taking = instance;
            const bool took = taking.consume(tpl);
            EXPECT_EQ(instance.canConsume(tpl), took);
            if (want == -1) {
                EXPECT_FALSE(took) << "template " << tpl;
            } else if (took) {
                EXPECT_EQ(taking.lastConsumedEvent(), want)
                    << "template " << tpl << ", step " << step;
            }
            AutomatonInstance repairing = instance;
            ASSERT_EQ(repairing.removeFalseDependencies(tpl), want != -1)
                << "template " << tpl << ", step " << step;
            if (want != -1) {
                ASSERT_TRUE(repairing.consume(tpl));
                EXPECT_EQ(repairing.lastConsumedEvent(), want);
            }
        }
        const logging::TemplateId next = probes[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(probes.size()) - 3))];
        if (!instance.consume(next) &&
            instance.removeFalseDependencies(next)) {
            ASSERT_TRUE(instance.consume(next));
        }
    }
    repaired += instance.removedDependencyCount();
}

} // namespace

TEST(TemplateIndex, MatchesTheScansOnMinedTable2Automata)
{
    const std::vector<TaskAutomaton> &automata = minedAutomata();
    ASSERT_EQ(automata.size(), 8u);
    std::uint64_t seed = 1;
    for (const TaskAutomaton &spec : automata)
        checkIndexAgainstScans(spec, seed++, 400);
}

TEST(TemplateIndex, MatchesTheScansOnRepeatedOccurrences)
{
    LetterCatalog letters;
    TaskAutomaton spec = repeatedOccurrences(letters);
    std::span<const int> a = spec.eventsForTemplate(letters.id("A"));
    EXPECT_EQ(std::vector<int>(a.begin(), a.end()),
              (std::vector<int>{2, 6, 4, 0}));
    checkIndexAgainstScans(spec, 11, 2000);
}

TEST(TemplateIndex, DuplicateOccurrencesResolveToTheLowestId)
{
    LetterCatalog letters;
    TaskAutomaton spec = duplicatePairs(letters);
    // (occurrence, id) order: B#0 as e2 then e3, B#1 as e1 then e5.
    std::span<const int> b = spec.eventsForTemplate(letters.id("B"));
    EXPECT_EQ(std::vector<int>(b.begin(), b.end()),
              (std::vector<int>{2, 3, 1, 5}));
    std::span<const int> a = spec.eventsForTemplate(letters.id("A"));
    EXPECT_EQ(std::vector<int>(a.begin(), a.end()),
              (std::vector<int>{0, 6}));
    checkIndexAgainstScans(spec, 12, 2000);
}

TEST(TemplateIndex, InstancesAndRepairsTakeTheScansEvent)
{
    LetterCatalog letters;
    std::vector<TaskAutomaton> specs = {repeatedOccurrences(letters),
                                        duplicatePairs(letters)};
    for (const TaskAutomaton &mined : minedAutomata())
        specs.push_back(mined);
    std::uint64_t seed = 100;
    std::size_t repaired = 0;
    for (const TaskAutomaton &spec : specs) {
        for (int walk = 0; walk < 30; ++walk)
            checkInstanceAgainstScan(spec, seed++, 60, repaired);
    }
    EXPECT_GT(repaired, 0u) << "no walk reached a repaired instance";
    std::printf("walks removed %zu false dependencies\n", repaired);
}
