/**
 * @file
 * Unit tests for the online checking stage: identifier sets,
 * automaton groups (Algorithm 1), and the interleaved checker
 * (Algorithm 2) with its recovery heuristics and detection criteria.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/checker/interleaved_checker.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::makeLetterAutomaton;
using cloudseer::testutil::makeMessage;

namespace {

/** Paper Figure 3 boot automaton over letters. */
TaskAutomaton
bootAutomaton(LetterCatalog &letters)
{
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

// --- IdentifierSet ----------------------------------------------------

TEST(IdentifierSet, OverlapCountsDistinctShared)
{
    auto ids = cloudseer::testutil::internIds;
    IdentifierSet set(ids({"a", "b", "c"}));
    auto view = [&](const std::vector<std::string> &raw) {
        return IdentifierSet::dedupSorted(ids(raw));
    };
    EXPECT_EQ(set.overlap(view({"a"})), 1);
    EXPECT_EQ(set.overlap(view({"a", "b"})), 2);
    EXPECT_EQ(set.overlap(view({"x", "y"})), 0);
    EXPECT_EQ(set.overlap(view({"a", "a", "a"})), 1)
        << "duplicates count once";
    EXPECT_EQ(set.overlap(view({})), 0);
}

TEST(IdentifierSet, SymmetricDifference)
{
    auto ids = cloudseer::testutil::internIds;
    IdentifierSet set(ids({"a", "b", "c"}));
    auto view = [&](const std::vector<std::string> &raw) {
        return IdentifierSet::dedupSorted(ids(raw));
    };
    EXPECT_EQ(set.symmetricDifference(view({"a"})), 2);      // {b,c}
    EXPECT_EQ(set.symmetricDifference(view({"a", "b", "c"})), 0);
    EXPECT_EQ(set.symmetricDifference(view({"x"})), 4);      // {a,b,c}+{x}
    EXPECT_EQ(set.symmetricDifference(view({"a", "x"})), 3); // {b,c}+{x}
}

TEST(IdentifierSet, InsertAndUnionDeduplicate)
{
    auto ids = cloudseer::testutil::internIds;
    IdentifierSet set(ids({"b", "a"}));
    set.insert(IdentifierSet::dedupSorted(ids({"a", "c"})));
    EXPECT_EQ(set.size(), 3u);
    IdentifierSet other(ids({"c", "d"}));
    set.unionWith(other);
    EXPECT_EQ(set.size(), 4u);
    EXPECT_TRUE(set.contains(ids({"d"}).front()));
    std::vector<logging::IdToken> expected = ids({"a", "b", "c", "d"});
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(set.values(), expected);
}

// --- AutomatonGroup (Algorithm 1) --------------------------------------

TEST(AutomatonGroup, NarrowsToConsumingInstances)
{
    LetterCatalog letters;
    TaskAutomaton x = makeLetterAutomaton(letters, "x", {"A", "B"},
                                          {{"A", "B"}});
    TaskAutomaton y = makeLetterAutomaton(letters, "y", {"A", "C"},
                                          {{"A", "C"}});
    AutomatonGroup group(1, {&x, &y});
    EXPECT_EQ(group.instances().size(), 2u);

    ASSERT_TRUE(group.consume(letters.id("A"), 1, 0.0));
    EXPECT_EQ(group.instances().size(), 2u) << "both tasks fit so far";

    ASSERT_TRUE(group.consume(letters.id("B"), 2, 0.1));
    ASSERT_EQ(group.instances().size(), 1u);
    EXPECT_EQ(group.instances()[0].automaton().name(), "x");
    ASSERT_TRUE(group.acceptingInstance());
    EXPECT_EQ(group.acceptingInstance().automaton().name(), "x");
}

TEST(AutomatonGroup, DivergenceLeavesGroupUntouched)
{
    LetterCatalog letters;
    TaskAutomaton x = makeLetterAutomaton(letters, "x", {"A", "B"},
                                          {{"A", "B"}});
    AutomatonGroup group(1, {&x});
    ASSERT_TRUE(group.consume(letters.id("A"), 1, 0.0));
    EXPECT_FALSE(group.consume(letters.id("C"), 2, 0.1));
    EXPECT_EQ(group.history().size(), 1u);
    EXPECT_EQ(group.instances().size(), 1u);
    EXPECT_DOUBLE_EQ(group.lastActivity(), 0.0);
}

TEST(AutomatonGroup, CandidateTaskNames)
{
    LetterCatalog letters;
    TaskAutomaton x = makeLetterAutomaton(letters, "x", {"A", "B"},
                                          {{"A", "B"}});
    TaskAutomaton y = makeLetterAutomaton(letters, "y", {"A", "C"},
                                          {{"A", "C"}});
    AutomatonGroup group(1, {&x, &y});
    group.consume(letters.id("A"), 1, 0.0);
    auto names = group.candidateTaskNames();
    EXPECT_EQ(names.size(), 2u);
}

TEST(AutomatonGroup, CloneTracksLineage)
{
    LetterCatalog letters;
    TaskAutomaton x = makeLetterAutomaton(letters, "x", {"A", "B"},
                                          {{"A", "B"}});
    AutomatonGroup group(3, {&x});
    group.consume(letters.id("A"), 1, 0.0);
    AutomatonGroup clone = group.cloneAs(9);
    EXPECT_EQ(clone.id(), 9u);
    EXPECT_EQ(clone.parent(), 3u);
    EXPECT_EQ(clone.history().size(), 1u);
    EXPECT_TRUE(clone.equivalentTo(group));
}

TEST(AutomatonGroup, CloneIntoCopiesOnlyCandidatesThatTakeTheNextMessage)
{
    LetterCatalog letters;
    TaskAutomaton x = makeLetterAutomaton(letters, "x", {"A", "B"},
                                          {{"A", "B"}});
    TaskAutomaton y = makeLetterAutomaton(letters, "y", {"A", "C"},
                                          {{"A", "C"}});
    const std::vector<const TaskAutomaton *> automata = {&x, &y};
    AutomatonGroup group(3, automata);
    ASSERT_TRUE(group.consume(letters.id("A"), 1, 0.0));
    group.addChild(4);

    // A fork into a used group copies only x, which takes B, and then
    // matches a full copy that consumed B.
    AutomatonGroup expected = group.cloneAs(9);
    ASSERT_TRUE(expected.consume(letters.id("B"), 2, 0.1));
    AutomatonGroup target(5, {&y, &x, &y});
    group.cloneInto(target, 9, letters.id("B"));
    ASSERT_EQ(target.instances().size(), 1u);
    EXPECT_EQ(&target.instances()[0].automaton(), &x);
    ASSERT_TRUE(target.consume(letters.id("B"), 2, 0.1));

    auto image = [&automata](const AutomatonGroup &g) {
        common::BinWriter out;
        g.saveState(out, automata);
        return out.bytes();
    };
    EXPECT_EQ(image(target), image(expected));
    EXPECT_EQ(target.parent(), 3u);
    EXPECT_TRUE(target.children().empty());
    EXPECT_EQ(target.candidateTaskNames(), expected.candidateTaskNames());
    EXPECT_EQ(target.stateSignature(), expected.stateSignature());
}

// --- InterleavedChecker (Algorithm 2) -----------------------------------

class CheckerTest : public ::testing::Test
{
  protected:
    LetterCatalog letters;
    std::unique_ptr<TaskAutomaton> boot;
    std::unique_ptr<InterleavedChecker> checker;
    logging::RecordId nextRecord = 1;
    double clock = 0.0;

    void
    SetUp() override
    {
        boot = std::make_unique<TaskAutomaton>(bootAutomaton(letters));
        checker = std::make_unique<InterleavedChecker>(
            CheckerConfig{}, std::vector<const TaskAutomaton *>{
                                 boot.get()});
    }

    std::vector<CheckEvent>
    feed(const std::string &letter, std::vector<std::string> ids,
         logging::LogLevel level = logging::LogLevel::Info)
    {
        clock += 0.1;
        return checker->feed(makeMessage(letters, letter,
                                         std::move(ids), nextRecord++,
                                         clock, level));
    }
};

TEST_F(CheckerTest, PaperTable1TwoInterleavedBoots)
{
    // Figure 2's twelve messages with the paper's identifier values.
    std::vector<CheckEvent> accepted;
    auto collect = [&accepted](std::vector<CheckEvent> events) {
        for (CheckEvent &event : events) {
            ASSERT_EQ(event.kind, CheckEventKind::Accepted);
            accepted.push_back(std::move(event));
        }
    };
    collect(feed("A", {"IP1"}));                              // (1)
    collect(feed("A", {"IP2"}));                              // (2)
    collect(feed("P", {"UUID1", "IP1", "UUID2"}));            // (3)
    collect(feed("P", {"UUID3", "IP2", "UUID4"}));            // (4)
    collect(feed("S", {"UUID1", "UUID5"}));                   // (5)
    collect(feed("S", {"UUID3", "UUID6"}));                   // (6)
    collect(feed("G", {"UUID3", "IP2", "UUID4", "UUID6"}));   // (7)
    collect(feed("T", {"UUID1", "UUID5"}));                   // (8)
    collect(feed("G", {"UUID1", "IP1", "UUID2", "UUID5"}));   // (9)
    collect(feed("T", {"UUID3", "UUID6"}));                   // (10)
    collect(feed("W", {"UUID5"}));                            // (11)
    collect(feed("W", {"UUID6"}));                            // (12)

    ASSERT_EQ(accepted.size(), 2u);
    EXPECT_EQ(accepted[0].taskName, "boot");
    EXPECT_EQ(accepted[1].taskName, "boot");
    EXPECT_EQ(accepted[0].records,
              (std::vector<logging::RecordId>{1, 3, 5, 8, 9, 11}));
    EXPECT_EQ(accepted[1].records,
              (std::vector<logging::RecordId>{2, 4, 6, 7, 10, 12}));

    const CheckerStats &stats = checker->stats();
    EXPECT_EQ(stats.recoveredNewSequence, 2u);
    EXPECT_EQ(stats.decisive, 10u);
    EXPECT_EQ(stats.ambiguous, 0u);
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(checker->activeGroups(), 0u) << "accepted groups pruned";
    EXPECT_EQ(checker->activeIdentifierSets(), 0u);
}

TEST_F(CheckerTest, UnknownTemplatePassesThrough)
{
    auto events = feed("Z", {"IP1"});
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(checker->stats().recoveredPassUnknown, 1u);
    EXPECT_EQ(checker->activeGroups(), 0u);
}

TEST_F(CheckerTest, MidSequenceMessageCannotStartSequence)
{
    auto events = feed("P", {"IP1"});
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(checker->stats().unmatched, 1u);
    EXPECT_EQ(checker->activeGroups(), 0u);
}

TEST_F(CheckerTest, RecoveryCWrongIdentifierSet)
{
    // Sequence 1 grows a large identifier set; a second sequence by
    // the same tenant then emits a message sharing *more* identifiers
    // with sequence 1's set than with its own.
    feed("A", {"IP1"});
    feed("P", {"a", "IP1", "b"});
    feed("S", {"a", "c"});          // seq 1 set: {IP1, a, b, c}

    feed("A", {"IP1"});             // seq 2 via recovery (b)
    EXPECT_EQ(checker->stats().recoveredNewSequence, 2u);

    // Seq 2's POST shares 3 ids with seq 1's set but only 1 with its
    // own; routing goes wrong and recovery (c) must fix it.
    auto events = feed("P", {"a", "IP1", "b"});
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(checker->stats().recoveredOtherSet, 1u);
    EXPECT_EQ(checker->activeGroups(), 2u);
}

TEST_F(CheckerTest, RecoveryDFalseDependencyReorder)
{
    // G arrives before S (shipping reorder): all cheaper recoveries
    // fail and the checker must weaken the model on the fly.
    feed("A", {"IP1"});
    feed("P", {"u1", "IP1", "u2"});
    auto events = feed("G", {"u1", "IP1", "u2", "u5"}); // S missing!
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(checker->stats().recoveredFalseDependency, 1u);

    // The sequence still completes once S and the rest arrive.
    feed("S", {"u1", "u5"});
    feed("T", {"u1", "u5"});
    auto final_events = feed("W", {"u5"});
    ASSERT_EQ(final_events.size(), 1u);
    EXPECT_EQ(final_events[0].kind, CheckEventKind::Accepted);
    EXPECT_EQ(final_events[0].records.size(), 6u);
}

TEST_F(CheckerTest, ErrorCriterionAssociatesBestGroup)
{
    feed("A", {"IP1"});
    feed("P", {"u1", "IP1", "u2"});
    // An ERROR message with an unknown template but matching ids.
    auto events = feed("E", {"u1"}, logging::LogLevel::Error);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::ErrorDetected);
    EXPECT_EQ(events[0].taskName, "boot");
    // Record ids: the two consumed plus the error message itself.
    EXPECT_EQ(events[0].records.size(), 3u);
    EXPECT_EQ(checker->stats().errorsReported, 1u);
    EXPECT_EQ(checker->activeGroups(), 0u)
        << "erroneous group no longer checked";
}

TEST_F(CheckerTest, ErrorWithoutAnyGroup)
{
    auto events = feed("E", {"zz"}, logging::LogLevel::Error);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::ErrorDetected);
    EXPECT_EQ(events[0].taskName, "(unassociated)");
}

TEST_F(CheckerTest, TimeoutCriterionReportsStaleGroup)
{
    feed("A", {"IP1"});
    feed("P", {"u1", "IP1", "u2"});
    auto events = checker->sweepTimeouts(clock + 30.0, 10.0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Timeout);
    EXPECT_EQ(events[0].taskName, "boot");
    EXPECT_EQ(events[0].records.size(), 2u);
    ASSERT_FALSE(events[0].expectedTemplates.empty());
    EXPECT_EQ(events[0].expectedTemplates[0], letters.id("S"));
    EXPECT_EQ(checker->stats().timeoutsReported, 1u);
}

TEST_F(CheckerTest, FreshGroupNotTimedOut)
{
    feed("A", {"IP1"});
    auto events = checker->sweepTimeouts(clock + 5.0, 10.0);
    EXPECT_TRUE(events.empty());
}

TEST_F(CheckerTest, ZombieAbsorbsLateMessagesSilently)
{
    feed("A", {"IP1"});
    feed("P", {"u1", "IP1", "u2"});
    auto timeouts = checker->sweepTimeouts(clock + 30.0, 10.0);
    ASSERT_EQ(timeouts.size(), 1u);
    EXPECT_EQ(checker->activeGroups(), 1u) << "zombie retained";

    // The delayed continuation arrives: consumed, no further reports.
    clock += 30.0;
    std::vector<CheckEvent> all;
    for (const char *m : {"S", "T", "G", "W"}) {
        auto events = feed(m, {"u1", "IP1", "u5"});
        all.insert(all.end(), events.begin(), events.end());
    }
    EXPECT_TRUE(all.empty()) << "zombie acceptance is silent";
    EXPECT_EQ(checker->activeGroups(), 0u);
    EXPECT_EQ(checker->stats().timeoutsReported, 1u);
}

TEST_F(CheckerTest, FinishFlushesOpenGroups)
{
    feed("A", {"IP1"});
    auto events = checker->finish(clock);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Timeout);
    EXPECT_EQ(checker->activeGroups(), 0u);
    EXPECT_EQ(checker->activeIdentifierSets(), 0u);
}

TEST_F(CheckerTest, BruteForceModeStillWorks)
{
    CheckerConfig config;
    config.identifierRouting = false;
    InterleavedChecker brute(config, {boot.get()});
    logging::RecordId rid = 1;
    double t = 0.0;
    std::size_t accepted = 0;
    for (const char *m : {"A", "P", "S", "G", "T", "W"}) {
        for (CheckEvent &event :
             brute.feed(makeMessage(letters, m, {"IP1"}, rid++,
                                    t += 0.1))) {
            EXPECT_EQ(event.kind, CheckEventKind::Accepted);
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 1u);
}

// --- ambiguity (case 2) and lineage pruning ----------------------------

class AmbiguityTest : public ::testing::Test
{
  protected:
    LetterCatalog letters;
    std::unique_ptr<TaskAutomaton> chain;
    std::unique_ptr<InterleavedChecker> checker;
    logging::RecordId nextRecord = 1;
    double clock = 0.0;

    void
    SetUp() override
    {
        chain = std::make_unique<TaskAutomaton>(makeLetterAutomaton(
            letters, "chain", {"A", "B", "C"}, {{"A", "B"},
                                                {"B", "C"}}));
        checker = std::make_unique<InterleavedChecker>(
            CheckerConfig{}, std::vector<const TaskAutomaton *>{
                                 chain.get()});
    }

    std::vector<CheckEvent>
    feed(const std::string &letter, std::vector<std::string> ids)
    {
        clock += 0.1;
        return checker->feed(makeMessage(letters, letter,
                                         std::move(ids), nextRecord++,
                                         clock));
    }
};

TEST_F(AmbiguityTest, FullyIdenticalSequencesResolveByDedup)
{
    // Two executions with byte-identical identifiers: both fresh
    // groups share one identifier-set entry, so the equivalent-group
    // heuristic collapses them and no forking is needed at all.
    std::size_t accepted = 0;
    std::vector<std::string> script = {"A", "A", "B", "B", "C", "C"};
    for (const std::string &m : script) {
        for (CheckEvent &event : feed(m, {"u"})) {
            EXPECT_EQ(event.kind, CheckEventKind::Accepted);
            EXPECT_EQ(event.records.size(), 3u);
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 2u);
    EXPECT_EQ(checker->activeGroups(), 0u);
}

TEST_F(AmbiguityTest, OverlappingSequencesForkHypotheses)
{
    // Two sequences whose identifier sets differ ({u,a} vs {u,b}) but
    // tie on a message carrying only the shared identifier: the
    // checker must brute-force track both alternatives (case 2), and
    // exactly two sequences must come out accepted.
    std::size_t accepted = 0;
    feed("A", {"u", "a"});
    feed("A", {"u", "b"});
    for (const char *m : {"B", "B", "C", "C"}) {
        for (CheckEvent &event : feed(m, {"u"})) {
            EXPECT_EQ(event.kind, CheckEventKind::Accepted);
            EXPECT_EQ(event.records.size(), 3u);
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 2u);
    EXPECT_GT(checker->stats().ambiguous, 0u)
        << "tying identifier sets must trigger case (2)";
    EXPECT_LE(checker->activeGroups(), 1u)
        << "at most one stale hypothesis may remain";
}

TEST_F(AmbiguityTest, TimeoutSuppressionPrunesCoveredAncestors)
{
    // Force an ambiguity, then advance only one branch. The stale
    // pre-fork parents are covered by the active lineage and must be
    // pruned silently rather than reported.
    feed("A", {"u", "a"}); // t = 0.1
    feed("A", {"u", "b"}); // t = 0.2
    feed("B", {"u"});      // t = 0.3: ambiguous, forks hypotheses
    EXPECT_GT(checker->stats().ambiguous, 0u);
    std::size_t groups_before = checker->activeGroups();
    EXPECT_GE(groups_before, 3u);

    // At t = 10.28 the pre-fork parents (last active 0.1/0.2) are
    // stale while their clones (0.3) are still within the window:
    // the parents are covered by active lineage -> silent pruning.
    auto events = checker->sweepTimeouts(10.28, 10.0);
    EXPECT_TRUE(events.empty());
    EXPECT_GE(checker->stats().timeoutsSuppressed, 2u);
    EXPECT_EQ(checker->stats().timeoutsReported, 0u);
}

TEST_F(AmbiguityTest, SharedIdentifierSetSplitsOnDecisiveUpdate)
{
    // After an ambiguity, the clones share one pooled identifier set.
    // When a later message is consumed decisively by only one clone,
    // that clone must split off a private expanded set (paper case 1,
    // "creates a new identifier set from the original one").
    feed("A", {"u", "a"});
    feed("A", {"u", "b"});
    feed("B", {"u"}); // fork: two clones share one pooled set
    EXPECT_GE(checker->activeGroups(), 3u);
    EXPECT_LE(checker->activeIdentifierSets(),
              checker->activeGroups())
        << "groups own exactly one set each; sets can be shared";

    // C completes one clone: acceptance pruning must leave the
    // group/set tables consistent (no dangling sets).
    auto events = feed("C", {"u", "fresh-id"});
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Accepted);
    EXPECT_LE(checker->activeIdentifierSets(),
              checker->activeGroups());
    if (checker->activeGroups() == 0) {
        EXPECT_EQ(checker->activeIdentifierSets(), 0u);
    }
}

TEST_F(CheckerTest, RecoveryCWalksMultipleOverlapLevels)
{
    // Three sequences with nested identifier sets sizes 4 > 2 > 1;
    // a message matching the largest set but consumable only by the
    // smallest forces recovery (c) to walk down two levels.
    feed("A", {"a"});
    feed("P", {"a", "b"});
    feed("S", {"a", "b", "c", "d"}); // G1 set {a,b,c,d}, expects G/T

    feed("A", {"a"});
    feed("P", {"a", "b"}); // G2 set {a,b}, expects S

    feed("A", {"a"}); // G3 set {a}, expects P

    // P with ids {a,b,c,d}: best overlap is G1 (4) which cannot take
    // another P; G2 (2) already consumed its P; G3 (1) can.
    auto events = feed("P", {"a", "b", "c", "d"});
    EXPECT_TRUE(events.empty());
    EXPECT_GE(checker->stats().recoveredOtherSet, 1u);
    EXPECT_EQ(checker->stats().unmatched, 0u);
}

TEST_F(CheckerTest, ErrorOnZombiePrefersLiveGroup)
{
    // Two sequences; the first times out (zombie). An error sharing
    // identifiers with both must be attributed to the live group.
    feed("A", {"x"});
    feed("P", {"x", "shared"});
    checker->sweepTimeouts(clock + 30.0, 10.0); // zombifies seq 1
    clock += 30.0;
    feed("A", {"y"});
    feed("P", {"y", "shared"});

    auto events = feed("E", {"shared"}, logging::LogLevel::Error);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::ErrorDetected);
    // The live group consumed records 4 and 5 (plus the error = 3).
    EXPECT_EQ(events[0].records.size(), 3u);
}

TEST_F(CheckerTest, ResolverOverloadAppliesPerTaskTimeouts)
{
    feed("A", {"IP1"});
    // Resolver grants "boot" a long timeout: no report at +15 s.
    auto quiet = checker->sweepTimeouts(
        clock + 15.0, [](const std::vector<std::string> &tasks) {
            return !tasks.empty() && tasks[0] == "boot" ? 30.0 : 5.0;
        });
    EXPECT_TRUE(quiet.empty());
    // And a short one fires at the same instant.
    auto loud = checker->sweepTimeouts(
        clock + 15.0,
        [](const std::vector<std::string> &) { return 5.0; });
    EXPECT_EQ(loud.size(), 1u);
}

TEST_F(CheckerTest, StatsAccumulateConsistently)
{
    feed("A", {"IP1"});
    feed("P", {"u1", "IP1", "u2"});
    feed("Z", {"IP1"}); // unknown template
    feed("S", {"u1", "u5"});
    const CheckerStats &stats = checker->stats();
    EXPECT_EQ(stats.messages, 4u);
    EXPECT_EQ(stats.recoveredPassUnknown, 1u);
    EXPECT_EQ(stats.recoveredNewSequence, 1u);
    EXPECT_EQ(stats.decisive, 2u);
    EXPECT_GT(stats.consumeAttempts, 0u);
    double fraction = stats.decisiveFraction();
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
}

TEST_F(CheckerTest, EmptyIdentifierMessageFallsBackToAllGroups)
{
    // A known template with no extracted identifiers cannot be routed
    // by sets; the checker must fall back to probing all groups.
    feed("A", {"IP1"});
    auto events = feed("P", {});
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(checker->stats().decisive, 1u);
    EXPECT_EQ(checker->activeGroups(), 1u);
}

TEST_F(AmbiguityTest, SuppressionCanBeDisabled)
{
    CheckerConfig config;
    config.timeoutSuppression = false;
    InterleavedChecker noisy(config, {chain.get()});
    logging::RecordId rid = 1;
    noisy.feed(makeMessage(letters, "A", {"u", "a"}, rid++, 0.1));
    noisy.feed(makeMessage(letters, "A", {"u", "b"}, rid++, 0.2));
    noisy.feed(makeMessage(letters, "B", {"u"}, rid++, 0.3));
    auto events = noisy.sweepTimeouts(10.28, 10.0);
    EXPECT_GT(events.size(), 0u)
        << "without suppression the stale parents are reported";
    EXPECT_EQ(noisy.stats().timeoutsSuppressed, 0u);
}
