/**
 * @file
 * Tests for the interned-identifier routing index (DESIGN.md §9):
 * the identifier interner, posting-list maintenance across the full
 * group lifecycle (create, decisive expansion, fork, retire, zombie,
 * finish), and the differential guarantee — the indexed checker's
 * report sequence is bit-identical to the reference scan path on
 * clean and transport-perturbed streams — and the counted-work bound:
 * indexed selection visits a flat number of identifier sets per
 * message while the scan's grows with the in-flight count.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collect/stream_perturber.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::internIds;
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

// --- IdentifierInterner -----------------------------------------------

TEST(IdentifierInterner, AssignsDenseCollisionFreeTokens)
{
    logging::IdentifierInterner interner;
    std::vector<logging::IdToken> tokens;
    for (int i = 0; i < 1000; ++i)
        tokens.push_back(interner.intern("id-" + std::to_string(i)));

    // Dense: first-seen order, no gaps, no collisions.
    for (std::size_t i = 0; i < tokens.size(); ++i)
        EXPECT_EQ(tokens[i], static_cast<logging::IdToken>(i));
    EXPECT_EQ(interner.size(), 1000u);

    // Stable: re-interning returns the original token.
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(interner.intern("id-" + std::to_string(i)),
                  tokens[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(interner.size(), 1000u);

    // Round trip and non-interning lookup.
    EXPECT_EQ(interner.text(tokens[17]), "id-17");
    EXPECT_EQ(interner.find("id-42"), tokens[42]);
    EXPECT_EQ(interner.find("never-seen"), logging::kInvalidIdToken);
}

TEST(IdentifierInterner, ProcessInstanceIsShared)
{
    logging::IdentifierInterner &a = logging::IdentifierInterner::process();
    logging::IdentifierInterner &b = logging::IdentifierInterner::process();
    EXPECT_EQ(&a, &b);
    logging::IdToken token = a.intern("routing-index-test-shared");
    EXPECT_EQ(b.find("routing-index-test-shared"), token);
}

// --- posting-list maintenance ------------------------------------------

TEST(RoutingIndex, PostingsFollowDecisiveExpansionAndAcceptRetire)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    InterleavedChecker checker(CheckerConfig{}, {&boot});

    std::vector<logging::IdToken> u1 = internIds({"seq-1"});
    std::vector<logging::IdToken> u2 = internIds({"seq-1", "user-1"});

    checker.feed(makeMessage(letters, "A", {"seq-1"}, 1, 0.1));
    ASSERT_TRUE(checker.indexConsistent());
    ASSERT_NE(checker.postingsFor(u1[0]), nullptr);
    EXPECT_EQ(checker.postingsFor(u1[0])->size(), 1u);
    EXPECT_EQ(checker.postingsFor(internIds({"user-1"})[0]), nullptr);

    // Decisive consumption expands the sole-owner set in place; the
    // new token gains a posting pointing at the same set.
    checker.feed(makeMessage(letters, "P", {"seq-1", "user-1"}, 2, 0.2));
    ASSERT_TRUE(checker.indexConsistent());
    ASSERT_NE(checker.postingsFor(u2[1]), nullptr);
    EXPECT_EQ(*checker.postingsFor(u2[1]), *checker.postingsFor(u2[0]));

    // Run the sequence to acceptance: the winner's lineage is pruned,
    // the set drains, and every posting goes with it.
    for (const char *letter : {"S", "G", "T", "W"}) {
        checker.feed(makeMessage(letters, letter, {"seq-1"}, 3, 0.3));
        ASSERT_TRUE(checker.indexConsistent()) << letter;
    }
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(checker.activeIdentifierSets(), 0u);
    EXPECT_EQ(checker.postingTokens(), 0u);
    EXPECT_EQ(checker.postingsFor(u1[0]), nullptr);
}

TEST(RoutingIndex, PostingsSurviveForkMergeAndRivalPruning)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    InterleavedChecker checker(CheckerConfig{}, {&boot});

    // Two live sequences with distinct identifiers.
    checker.feed(makeMessage(letters, "A", {"seq-1"}, 1, 0.1));
    checker.feed(makeMessage(letters, "A", {"seq-2"}, 2, 0.2));
    ASSERT_TRUE(checker.indexConsistent());
    EXPECT_EQ(checker.activeGroups(), 2u);

    // An identifier-less message is ambiguous between them: case (2)
    // forks clones under one pooled identifier set. The pooled set
    // holds both sequences' tokens, so each token's posting list now
    // names two sets (the original and the pooled one).
    checker.feed(makeMessage(letters, "P", {}, 3, 0.3));
    ASSERT_TRUE(checker.indexConsistent());
    std::vector<logging::IdToken> s1 = internIds({"seq-1"});
    ASSERT_NE(checker.postingsFor(s1[0]), nullptr);
    EXPECT_EQ(checker.postingsFor(s1[0])->size(), 2u);

    // Finish one fork's sequence: acceptance prunes the winner's
    // lineage (including its original ancestor) and the rival clone.
    // The clones are state-equivalent, so which lineage wins is the
    // rng's pick — either way exactly one original hypothesis
    // survives, owning exactly one of the two tokens' postings.
    for (const char *letter : {"S", "G", "T", "W"})
        checker.feed(makeMessage(letters, letter, {"seq-1"}, 4, 0.4));
    ASSERT_TRUE(checker.indexConsistent());
    EXPECT_EQ(checker.activeGroups(), 1u);
    EXPECT_EQ(checker.activeIdentifierSets(), 1u);
    bool s1_live = checker.postingsFor(s1[0]) != nullptr;
    bool s2_live =
        checker.postingsFor(internIds({"seq-2"})[0]) != nullptr;
    EXPECT_NE(s1_live, s2_live);
}

TEST(RoutingIndex, PostingsAcrossZombieTransitionAndExpiry)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    CheckerConfig config;
    config.zombieAbsorption = true;
    InterleavedChecker checker(config, {&boot});

    checker.feed(makeMessage(letters, "A", {"seq-z"}, 1, 0.0));
    std::vector<logging::IdToken> z = internIds({"seq-z"});

    // Timeout: the group is reported and zombified, not erased — its
    // identifier set (and postings) must stay live to absorb strays.
    std::vector<CheckEvent> timeouts = checker.sweepTimeouts(100.0, 10.0);
    ASSERT_EQ(timeouts.size(), 1u);
    EXPECT_EQ(checker.activeGroups(), 1u);
    ASSERT_TRUE(checker.indexConsistent());
    ASSERT_NE(checker.postingsFor(z[0]), nullptr);

    // Long past the zombie horizon the group fades; the set drains.
    checker.sweepTimeouts(1000.0, 10.0);
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(checker.postingTokens(), 0u);
    ASSERT_TRUE(checker.indexConsistent());
}

TEST(RoutingIndex, FinishClearsAllRoutingState)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    InterleavedChecker checker(CheckerConfig{}, {&boot});

    checker.feed(makeMessage(letters, "A", {"f-1"}, 1, 0.1));
    checker.feed(makeMessage(letters, "A", {"f-2"}, 2, 0.2));
    EXPECT_GT(checker.postingTokens(), 0u);

    checker.finish(1.0);
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(checker.activeIdentifierSets(), 0u);
    EXPECT_EQ(checker.postingTokens(), 0u);
    EXPECT_TRUE(checker.indexConsistent());
}

// --- differential: indexed ≡ scan --------------------------------------

namespace {

const eval::ModeledSystem &
models()
{
    static eval::ModeledSystem system = [] {
        eval::ModelingConfig config;
        config.minRuns = 60;
        config.checkEvery = 20;
        config.stableChecks = 3;
        config.maxRuns = 300;
        return eval::buildModels(config);
    }();
    return system;
}

/** Byte-exact fingerprint of everything an event carries. */
std::string
fingerprint(const CheckEvent &event)
{
    std::string out;
    out += std::to_string(static_cast<int>(event.kind));
    out += '|';
    out += event.taskName;
    out += '|';
    for (const std::string &task : event.candidateTasks) {
        out += task;
        out += ',';
    }
    out += '|';
    for (logging::RecordId record : event.records) {
        out += std::to_string(record);
        out += ',';
    }
    out += '|';
    for (logging::TemplateId tpl : event.frontierTemplates) {
        out += std::to_string(tpl);
        out += ',';
    }
    out += '|';
    for (logging::TemplateId tpl : event.expectedTemplates) {
        out += std::to_string(tpl);
        out += ',';
    }
    char time_buf[32];
    std::snprintf(time_buf, sizeof(time_buf), "|%.9f|", event.time);
    out += time_buf;
    out += std::to_string(event.group);
    return out;
}

/** Byte-exact fingerprint of everything a report carries. */
std::string
fingerprint(const MonitorReport &report)
{
    std::string out = fingerprint(report.event);
    out += '|';
    out += report.endOfStream ? '1' : '0';
    return out;
}

MonitorConfig
monitorConfigFor(bool routing_index)
{
    MonitorConfig config;
    config.checker.routingIndex = routing_index;
    config.ingest = hardenedIngestDefaults();
    return config;
}

/** Feed both monitors a step's worth of reports and compare. */
void
expectIdenticalReports(const std::vector<MonitorReport> &indexed,
                       const std::vector<MonitorReport> &scan,
                       const char *where, std::size_t step)
{
    ASSERT_EQ(indexed.size(), scan.size())
        << where << " diverged at step " << step;
    for (std::size_t i = 0; i < indexed.size(); ++i) {
        ASSERT_EQ(fingerprint(indexed[i]), fingerprint(scan[i]))
            << where << " diverged at step " << step << " report " << i;
    }
}

void
expectIdenticalStats(const CheckerStats &a, const CheckerStats &b)
{
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.decisive, b.decisive);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
    EXPECT_EQ(a.recoveredPassUnknown, b.recoveredPassUnknown);
    EXPECT_EQ(a.recoveredNewSequence, b.recoveredNewSequence);
    EXPECT_EQ(a.recoveredOtherSet, b.recoveredOtherSet);
    EXPECT_EQ(a.recoveredFalseDependency, b.recoveredFalseDependency);
    EXPECT_EQ(a.unmatched, b.unmatched);
    EXPECT_EQ(a.errorsReported, b.errorsReported);
    EXPECT_EQ(a.timeoutsReported, b.timeoutsReported);
    EXPECT_EQ(a.timeoutsSuppressed, b.timeoutsSuppressed);
    EXPECT_EQ(a.accepted, b.accepted);
}

} // namespace

TEST(RoutingIndexDifferential, CleanStreamReportsBitIdentical)
{
    const eval::ModeledSystem &system = models();
    eval::DatasetConfig dataset_config;
    dataset_config.users = 3;
    dataset_config.tasksPerUser = 40;
    dataset_config.seed = 2026;
    eval::GeneratedDataset dataset = eval::generateDataset(dataset_config);
    ASSERT_FALSE(dataset.stream.empty());

    WorkflowMonitor indexed(monitorConfigFor(true), system.catalog,
                            system.automataCopy());
    WorkflowMonitor scan(monitorConfigFor(false), system.catalog,
                         system.automataCopy());

    std::size_t total_reports = 0;
    for (std::size_t i = 0; i < dataset.stream.size(); ++i) {
        std::vector<MonitorReport> a = indexed.feed(dataset.stream[i]);
        std::vector<MonitorReport> b = scan.feed(dataset.stream[i]);
        expectIdenticalReports(a, b, "clean-feed", i);
        total_reports += a.size();
    }
    expectIdenticalReports(indexed.finish(), scan.finish(),
                           "clean-finish", dataset.stream.size());
    expectIdenticalStats(indexed.stats(), scan.stats());
    EXPECT_GT(indexed.stats().accepted, 0u)
        << "workload produced no acceptances; differential is vacuous";
    (void)total_reports;
}

TEST(RoutingIndexDifferential, PerturbedWireStreamReportsBitIdentical)
{
    const eval::ModeledSystem &system = models();
    eval::DatasetConfig dataset_config;
    dataset_config.users = 3;
    dataset_config.tasksPerUser = 30;
    dataset_config.seed = 777;
    eval::GeneratedDataset dataset = eval::generateDataset(dataset_config);

    collect::PerturbationConfig adversity;
    adversity.dropProbability = 0.02;
    adversity.duplicateProbability = 0.02;
    adversity.truncateProbability = 0.005;
    adversity.corruptProbability = 0.005;
    adversity.clockSkewMaxSeconds = 0.05;
    adversity.burstProbability = 0.0005;
    adversity.seed = 99;
    collect::StreamPerturber perturber(adversity);
    collect::PerturbedStream wire = perturber.apply(dataset.stream);
    ASSERT_FALSE(wire.lines.empty());

    WorkflowMonitor indexed(monitorConfigFor(true), system.catalog,
                            system.automataCopy());
    WorkflowMonitor scan(monitorConfigFor(false), system.catalog,
                         system.automataCopy());

    for (std::size_t i = 0; i < wire.lines.size(); ++i) {
        std::vector<MonitorReport> a = indexed.feedLine(wire.lines[i]);
        std::vector<MonitorReport> b = scan.feedLine(wire.lines[i]);
        expectIdenticalReports(a, b, "wire-feed", i);
    }
    expectIdenticalReports(indexed.finish(), scan.finish(),
                           "wire-finish", wire.lines.size());
    expectIdenticalStats(indexed.stats(), scan.stats());
}

// --- counted routing work: indexed selection stays flat ----------------

namespace {

constexpr int kChainLength = 8;

/** Linear workflow of kChainLength events: a decisive-heavy schedule,
 *  so selection cost is what varies with the in-flight count, not
 *  forking. */
TaskAutomaton
chainAutomaton(logging::TemplateCatalog &catalog)
{
    std::vector<EventNode> events;
    std::vector<DependencyEdge> edges;
    for (int i = 0; i < kChainLength; ++i) {
        events.push_back(
            {catalog.intern("svc", "step-" + std::to_string(i) +
                                       " <uuid>"),
             0});
        if (i > 0)
            edges.push_back({i - 1, i, false});
    }
    return TaskAutomaton("chain", std::move(events), std::move(edges));
}

/**
 * Deterministic interleaved schedule: `inflight` tasks in flight at
 * all times, each with a unique pair of uuid identifiers; a finished
 * task is immediately replaced by a fresh one.
 */
std::vector<CheckMessage>
makeSchedule(const TaskAutomaton &automaton, int inflight,
             int total_messages, std::uint64_t seed)
{
    logging::IdentifierInterner &interner =
        logging::IdentifierInterner::process();
    common::Rng rng(seed);

    struct Slot
    {
        std::vector<logging::IdToken> ids;
        int next = 0;
    };
    auto freshSlot = [&] {
        Slot slot;
        slot.ids = {interner.intern(common::makeUuid(rng)),
                    interner.intern(common::makeUuid(rng))};
        return slot;
    };

    std::vector<Slot> slots;
    for (int i = 0; i < inflight; ++i)
        slots.push_back(freshSlot());

    std::vector<CheckMessage> schedule;
    schedule.reserve(static_cast<std::size_t>(total_messages));
    logging::RecordId record = 1;
    double t = 0.0;
    while (static_cast<int>(schedule.size()) < total_messages) {
        Slot &slot = slots[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<int>(slots.size()) - 1))];
        CheckMessage message;
        message.tpl = automaton.event(slot.next).tpl;
        message.identifiers = slot.ids;
        message.record = record++;
        message.time = (t += 0.0001);
        schedule.push_back(std::move(message));
        if (++slot.next == kChainLength)
            slot = freshSlot();
    }
    return schedule;
}

struct RoutingRun
{
    std::vector<std::string> events; ///< fingerprints, feed then finish
    std::uint64_t visits = 0;        ///< idSetsVisited() after feeding
};

RoutingRun
replay(const TaskAutomaton &automaton,
       const std::vector<CheckMessage> &schedule, bool routing_index)
{
    CheckerConfig config;
    config.routingIndex = routing_index;
    InterleavedChecker checker(config, {&automaton});
    RoutingRun run;
    for (const CheckMessage &message : schedule)
        for (const CheckEvent &event : checker.feed(message))
            run.events.push_back(fingerprint(event));
    run.visits = checker.idSetsVisited();
    for (const CheckEvent &event :
         checker.finish(schedule.back().time + 1.0))
        run.events.push_back(fingerprint(event));
    return run;
}

} // namespace

TEST(RoutingIndexCountedWork, IndexedVisitsStayFlatWhileScanGrows)
{
    // Sets visited per message, not wall-clock time: the count is
    // exact per seed, so this pins routing complexity on any machine.
    // Measured with these seeds: indexed 1.75 / 1.74 / 1.70 / 1.70,
    // scan 8.8 / 43.6 / 169.9 / 846.9 sets per message.
    logging::TemplateCatalog catalog;
    TaskAutomaton automaton = chainAutomaton(catalog);
    for (int inflight : {10, 50, 200, 1000}) {
        // Enough messages for the slot pool to cycle several task
        // generations at every level.
        const int messages = std::max(4000, 2 * kChainLength * inflight);
        std::vector<CheckMessage> schedule = makeSchedule(
            automaton, inflight, messages,
            static_cast<std::uint64_t>(inflight) * 7919u + 11u);
        RoutingRun indexed = replay(automaton, schedule, true);
        RoutingRun scan = replay(automaton, schedule, false);

        ASSERT_FALSE(indexed.events.empty()) << inflight << " in-flight";
        ASSERT_EQ(indexed.events, scan.events)
            << inflight << " in-flight: indexed and scan reports differ";

        const double indexed_per_msg =
            static_cast<double>(indexed.visits) / messages;
        const double scan_per_msg =
            static_cast<double>(scan.visits) / messages;
        std::printf("%4d in-flight: indexed %.2f, scan %.1f sets visited "
                    "per message\n",
                    inflight, indexed_per_msg, scan_per_msg);
        EXPECT_LE(indexed_per_msg, 2.0)
            << inflight << " in-flight: indexed selection visited "
            << indexed_per_msg << " sets per message";
        EXPECT_GE(scan_per_msg, 0.5 * inflight)
            << inflight << " in-flight: scan selection visited "
            << scan_per_msg << " sets per message";
    }
}
