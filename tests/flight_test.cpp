/**
 * @file
 * Tests for seer-flight (DESIGN.md §12): latency-profile mining and
 * quantile math, model-file persistence, the SL010 lint pass, the
 * checker's latency-anomaly criterion, the flight recorder's bounded
 * rings and forensic bundles, and the monitor-level null-sink pin.
 *
 * Two fixtures carry golden or statistical weight:
 *   - tests/golden/report_stream.jsonl pins the VERDICT wire format
 *     (including the start/duration fields and the latency object);
 *     regenerate with CLOUDSEER_UPDATE_GOLDEN=1.
 *   - LatencyEval.PrecisionAndRecallOnDelayFaults asserts the paper
 *     acceptance bar (both >= 0.9 at the default p99 policy).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "analysis/model_lint.hpp"
#include "collect/stream_perturber.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/mining/latency_profile.hpp"
#include "core/mining/model_io.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/latency_harness.hpp"
#include "obs/flight_recorder.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

// --- Quantile math -------------------------------------------------

TEST(LatencyStatsTest, NearestRankQuantiles)
{
    // 100 samples 1..100: nearest-rank pN is exactly N.
    std::vector<double> samples;
    for (int v = 100; v >= 1; --v)
        samples.push_back(static_cast<double>(v));
    LatencyStats stats = summarizeLatencies(samples);
    EXPECT_EQ(stats.count, 100u);
    EXPECT_DOUBLE_EQ(stats.p50, 50.0);
    EXPECT_DOUBLE_EQ(stats.p95, 95.0);
    EXPECT_DOUBLE_EQ(stats.p99, 99.0);
    EXPECT_DOUBLE_EQ(stats.maxSeen, 100.0);
    EXPECT_TRUE(stats.wellFormed());
}

TEST(LatencyStatsTest, SmallSampleSetsRoundUp)
{
    // Nearest rank with 3 samples: p50 -> rank 2, p95/p99 -> rank 3.
    LatencyStats stats = summarizeLatencies({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(stats.p50, 2.0);
    EXPECT_DOUBLE_EQ(stats.p95, 3.0);
    EXPECT_DOUBLE_EQ(stats.p99, 3.0);
    EXPECT_DOUBLE_EQ(stats.maxSeen, 3.0);
}

TEST(LatencyStatsTest, EmptyInputIsWellFormedZero)
{
    LatencyStats stats = summarizeLatencies({});
    EXPECT_EQ(stats.count, 0u);
    EXPECT_TRUE(stats.wellFormed());
}

TEST(LatencyStatsTest, AtResolvesUnsupportedQuantilesUpward)
{
    LatencyStats stats;
    stats.count = 4;
    stats.p50 = 1.0;
    stats.p95 = 2.0;
    stats.p99 = 3.0;
    stats.maxSeen = 4.0;
    EXPECT_DOUBLE_EQ(stats.at(50), 1.0);
    EXPECT_DOUBLE_EQ(stats.at(90), 2.0); // conservative: next one up
    EXPECT_DOUBLE_EQ(stats.at(95), 2.0);
    EXPECT_DOUBLE_EQ(stats.at(99), 3.0);
    EXPECT_DOUBLE_EQ(stats.at(100), 4.0);
}

TEST(LatencyStatsTest, BudgetIsQuantileTimesFactorPlusSlack)
{
    LatencyStats stats;
    stats.count = 10;
    stats.p99 = 2.0;
    stats.maxSeen = 3.0;
    LatencyCheckConfig policy; // p99 * 1.5 + 0.5
    EXPECT_DOUBLE_EQ(latencyBudget(stats, policy), 3.5);

    LatencyStats empty;
    EXPECT_DOUBLE_EQ(latencyBudget(empty, policy), -1.0);
}

// --- Profile mining ------------------------------------------------

namespace {

core::TimedSequence
timed(testutil::LetterCatalog &letters,
      const std::vector<std::pair<std::string, double>> &messages)
{
    core::TimedSequence out;
    for (const auto &[letter, time] : messages)
        out.push_back({letters.id(letter), time});
    return out;
}

} // namespace

TEST(MineLatencyProfileTest, LinearChainEdgesAndTotal)
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "abc", {"A", "B", "C"}, {{"A", "B"}, {"B", "C"}});

    std::vector<core::TimedSequence> runs = {
        timed(letters, {{"A", 1.0}, {"B", 2.0}, {"C", 4.0}}),
        timed(letters, {{"A", 0.0}, {"B", 3.0}, {"C", 3.5}}),
    };
    LatencyProfile profile = mineLatencyProfile(automaton, runs);

    EXPECT_EQ(profile.task, "abc");
    EXPECT_EQ(profile.runs, 2u);
    ASSERT_EQ(profile.edges.size(), 2u);
    const LatencyStats &ab = profile.edges.at({0, 1});
    EXPECT_EQ(ab.count, 2u);
    EXPECT_DOUBLE_EQ(ab.p50, 1.0);
    EXPECT_DOUBLE_EQ(ab.maxSeen, 3.0);
    const LatencyStats &bc = profile.edges.at({1, 2});
    EXPECT_DOUBLE_EQ(bc.p50, 0.5);
    EXPECT_DOUBLE_EQ(bc.maxSeen, 2.0);
    EXPECT_DOUBLE_EQ(profile.total.p50, 3.0);
    EXPECT_DOUBLE_EQ(profile.total.maxSeen, 3.5);
    EXPECT_TRUE(profile.hasSamples());
}

TEST(MineLatencyProfileTest, TruncatedRunsAndNoiseAreSkipped)
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "ab", {"A", "B"}, {{"A", "B"}});

    std::vector<core::TimedSequence> runs = {
        // Noise template Z routes away exactly as in checking.
        timed(letters, {{"A", 0.0}, {"Z", 0.5}, {"B", 2.0}}),
        // Truncated: never accepts, must contribute no samples.
        timed(letters, {{"A", 0.0}}),
    };
    LatencyProfile profile = mineLatencyProfile(automaton, runs);
    EXPECT_EQ(profile.runs, 1u);
    EXPECT_EQ(profile.edges.at({0, 1}).count, 1u);
    EXPECT_DOUBLE_EQ(profile.edges.at({0, 1}).p50, 2.0);
}

TEST(MineLatencyProfileTest, ReorderedTimestampsClampToZero)
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "ab", {"A", "B"}, {{"A", "B"}});
    // Shipping skew put B's stamp before A's: the edge reads 0, never
    // a negative latency.
    LatencyProfile profile = mineLatencyProfile(
        automaton, {timed(letters, {{"A", 5.0}, {"B", 4.5}})});
    EXPECT_DOUBLE_EQ(profile.edges.at({0, 1}).p50, 0.0);
}

TEST(MineLatencyProfileTest, ForkBranchesProfileIndependently)
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "fork", {"A", "B", "C", "D"},
        {{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}});

    // B's branch is consistently fast, C's consistently slow: the
    // join's in-edges must keep separate distributions.
    std::vector<core::TimedSequence> runs = {
        timed(letters, {{"A", 0.0}, {"B", 0.1}, {"C", 3.0}, {"D", 3.2}}),
        timed(letters, {{"A", 0.0}, {"B", 0.2}, {"C", 4.0}, {"D", 4.1}}),
    };
    LatencyProfile profile = mineLatencyProfile(automaton, runs);
    ASSERT_EQ(profile.edges.size(), 4u);
    EXPECT_NEAR(profile.edges.at({0, 1}).maxSeen, 0.2, 1e-9); // A->B
    EXPECT_NEAR(profile.edges.at({0, 2}).maxSeen, 4.0, 1e-9); // A->C
    EXPECT_NEAR(profile.edges.at({2, 3}).maxSeen, 0.2, 1e-9); // C->D
}

// --- Model-file persistence ----------------------------------------

TEST(ModelIoLatencyTest, ProfilesRoundTripBitIdentically)
{
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    logging::TemplateId a = catalog->intern("svc", "alpha <uuid>");
    logging::TemplateId b = catalog->intern("svc", "beta <uuid>");
    std::vector<EventNode> events = {{a, 0}, {b, 0}};
    std::vector<DependencyEdge> edges = {{0, 1, true}};
    std::vector<TaskAutomaton> automata;
    automata.emplace_back("pair", std::move(events), std::move(edges));

    LatencyProfile profile;
    profile.task = "pair";
    profile.runs = 17;
    // Deliberately awkward doubles: %.17g must reproduce them exactly.
    profile.total = {17, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 0.7000000001};
    profile.edges[{0, 1}] = {17, 0.1, 0.30000000000000004, 0.5, 0.9};

    std::ostringstream out;
    saveModels(out, *catalog, automata, {profile});
    std::optional<ModelBundle> bundle =
        loadModelsFromString(out.str());
    ASSERT_TRUE(bundle.has_value());
    ASSERT_EQ(bundle->profiles.size(), 1u);
    EXPECT_EQ(bundle->profiles[0], profile);
}

TEST(ModelIoLatencyTest, LegacyFilesLoadWithEmptyProfiles)
{
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    logging::TemplateId a = catalog->intern("svc", "alpha <uuid>");
    std::vector<EventNode> events = {{a, 0}};
    std::vector<TaskAutomaton> automata;
    automata.emplace_back("solo", std::move(events),
                          std::vector<DependencyEdge>{});

    std::ostringstream out;
    saveModels(out, *catalog, automata); // pre-seer-flight writer
    std::optional<ModelBundle> bundle =
        loadModelsFromString(out.str());
    ASSERT_TRUE(bundle.has_value());
    EXPECT_TRUE(bundle->profiles.empty());
}

// --- SL010 lint ----------------------------------------------------

namespace {

struct LintFixture
{
    testutil::LetterCatalog letters;
    std::vector<TaskAutomaton> automata;

    LintFixture()
    {
        automata.push_back(testutil::makeLetterAutomaton(
            letters, "ab", {"A", "B"}, {{"A", "B"}}));
    }

    LatencyProfile
    goodProfile()
    {
        LatencyProfile profile;
        profile.task = "ab";
        profile.runs = 5;
        profile.total = {5, 1.0, 2.0, 2.0, 2.5};
        profile.edges[{0, 1}] = {5, 1.0, 2.0, 2.0, 2.5};
        return profile;
    }
};

} // namespace

TEST(LintLatencyTest, CleanProfileHasNoFindings)
{
    LintFixture f;
    analysis::LintReport report =
        analysis::lintLatencyProfiles(f.automata, {f.goodProfile()});
    EXPECT_TRUE(report.diagnostics.empty());
}

TEST(LintLatencyTest, ProfileNamingNoAutomatonIsAnError)
{
    LintFixture f;
    LatencyProfile stale = f.goodProfile();
    stale.task = "renamed-task";
    analysis::LintReport report =
        analysis::lintLatencyProfiles(f.automata, {stale});
    EXPECT_TRUE(report.hasErrors());
    // And "ab" itself is now unprofiled: warned, not errored.
    EXPECT_EQ(report.count(analysis::Severity::Warning), 1u);
    EXPECT_EQ(report.withId("SL010").size(),
              report.diagnostics.size());
}

TEST(LintLatencyTest, TimingForNonexistentEdgeIsAnError)
{
    LintFixture f;
    LatencyProfile profile = f.goodProfile();
    profile.edges.erase({0, 1});
    profile.edges[{1, 0}] = {5, 1.0, 2.0, 2.0, 2.5}; // reversed edge
    analysis::LintReport report =
        analysis::lintLatencyProfiles(f.automata, {profile});
    EXPECT_TRUE(report.hasErrors());
}

TEST(LintLatencyTest, NonMonotoneQuantilesAreAnError)
{
    LintFixture f;
    LatencyProfile profile = f.goodProfile();
    profile.total.p95 = 0.5; // p50 > p95
    analysis::LintReport report =
        analysis::lintLatencyProfiles(f.automata, {profile});
    EXPECT_TRUE(report.hasErrors());
}

TEST(LintLatencyTest, PartialEdgeCoverageWarns)
{
    LintFixture f;
    LatencyProfile profile = f.goodProfile();
    profile.edges.clear(); // total sampled, no edge coverage
    analysis::LintReport report =
        analysis::lintLatencyProfiles(f.automata, {profile});
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(analysis::Severity::Warning), 1u);
}

TEST(LintLatencyTest, UnsampledProfileCountsAsUnprofiled)
{
    LintFixture f;
    LatencyProfile empty;
    empty.task = "ab";
    analysis::LintReport report =
        analysis::lintLatencyProfiles(f.automata, {empty});
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(analysis::Severity::Warning), 1u);
}

// --- Checker latency criterion -------------------------------------

namespace {

struct LatencyChecker
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton;
    InterleavedChecker checker;

    explicit LatencyChecker(const LatencyCheckConfig &policy,
                            double max_total = 1.0)
        : automaton(testutil::makeLetterAutomaton(
              letters, "ab", {"A", "B"}, {{"A", "B"}})),
          checker(CheckerConfig{}, {&automaton})
    {
        LatencyProfile profile;
        profile.task = "ab";
        profile.runs = 4;
        profile.total = {4, max_total / 2.0, max_total, max_total,
                         max_total};
        profile.edges[{0, 1}] = profile.total;
        checker.setLatencyPolicy({profile}, policy);
    }
};

LatencyCheckConfig
strictPolicy()
{
    // budget == maxSeen exactly: anomalous iff strictly slower than
    // anything seen in training.
    LatencyCheckConfig policy;
    policy.quantile = 100;
    policy.factor = 1.0;
    policy.slackSeconds = 0.0;
    return policy;
}

} // namespace

TEST(CheckerLatencyTest, FastExecutionAcceptsWithAnnotations)
{
    LatencyChecker t(strictPolicy());
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1, 1.0));
    std::vector<CheckEvent> events = t.checker.feed(
        testutil::makeMessage(t.letters, "B", {"u1"}, 2, 1.5));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Accepted);
    // The accept is annotated even when on time: operators get the
    // timing breakdown either way.
    EXPECT_DOUBLE_EQ(events[0].totalElapsed, 0.5);
    EXPECT_DOUBLE_EQ(events[0].totalBudget, 1.0);
    ASSERT_EQ(events[0].edgeTimings.size(), 1u);
    EXPECT_FALSE(events[0].edgeTimings[0].exceeded);
    EXPECT_EQ(t.checker.stats().latencyAnomalies, 0u);
}

TEST(CheckerLatencyTest, SlowExecutionBecomesLatencyAnomaly)
{
    LatencyChecker t(strictPolicy());
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1, 1.0));
    std::vector<CheckEvent> events = t.checker.feed(
        testutil::makeMessage(t.letters, "B", {"u1"}, 2, 3.0));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::LatencyAnomaly);
    EXPECT_DOUBLE_EQ(events[0].totalElapsed, 2.0);
    ASSERT_EQ(events[0].edgeTimings.size(), 1u);
    EXPECT_TRUE(events[0].edgeTimings[0].exceeded);
    ASSERT_EQ(events[0].criticalPath.size(), 2u);
    EXPECT_EQ(events[0].criticalPath[0], 0);
    EXPECT_EQ(events[0].criticalPath[1], 1);
    EXPECT_EQ(t.checker.stats().latencyAnomalies, 1u);
    // The anomaly still counts as an acceptance: the execution is
    // logically complete, just slow.
    EXPECT_EQ(t.checker.stats().accepted, 1u);
}

TEST(CheckerLatencyTest, HeadroomPolicyToleratesModestOverruns)
{
    LatencyCheckConfig generous; // p99 * 1.5 + 0.5: budget 2.0
    LatencyChecker t(generous);
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1, 1.0));
    std::vector<CheckEvent> events = t.checker.feed(
        testutil::makeMessage(t.letters, "B", {"u1"}, 2, 2.9));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Accepted);
}

TEST(CheckerLatencyTest, TasksWithoutSamplesAreExempt)
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "ab", {"A", "B"}, {{"A", "B"}});
    InterleavedChecker checker(CheckerConfig{}, {&automaton});
    LatencyProfile unsampled;
    unsampled.task = "ab";
    checker.setLatencyPolicy({unsampled}, strictPolicy());
    EXPECT_FALSE(checker.latencyPolicyActive());

    checker.feed(testutil::makeMessage(letters, "A", {"u1"}, 1, 1.0));
    std::vector<CheckEvent> events = checker.feed(
        testutil::makeMessage(letters, "B", {"u1"}, 2, 500.0));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Accepted);
    EXPECT_DOUBLE_EQ(events[0].totalBudget, -1.0);
}

// --- Replay property -----------------------------------------------

TEST(CheckerLatencyTest, MinedProfileReplaysToZeroAnomalies)
{
    // Property: a profile mined from a stream, checked at quantile
    // 100 / factor 1 / slack 0 (budget == observed max), must flag
    // nothing when the very same stream is replayed.
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "fork", {"A", "B", "C", "D"},
        {{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}});

    std::mt19937 rng(20260806);
    std::uniform_real_distribution<double> gap(0.05, 4.0);
    std::vector<core::TimedSequence> runs;
    double base = 0.0;
    for (int run = 0; run < 50; ++run) {
        double a = base;
        double b = a + gap(rng);
        double c = a + gap(rng);
        double d = std::max(b, c) + gap(rng);
        core::TimedSequence sequence = {{letters.id("A"), a},
                                        {letters.id("B"), b},
                                        {letters.id("C"), c},
                                        {letters.id("D"), d}};
        std::sort(sequence.begin(), sequence.end(),
                  [](const core::TimedTemplate &x,
                     const core::TimedTemplate &y) {
                      return x.time < y.time;
                  });
        runs.push_back(std::move(sequence));
        base = d + 100.0; // keep runs disjoint under the timeout sweep
    }

    LatencyProfile profile = mineLatencyProfile(automaton, runs);
    ASSERT_EQ(profile.runs, 50u);

    InterleavedChecker checker(CheckerConfig{}, {&automaton});
    checker.setLatencyPolicy({profile}, strictPolicy());
    std::size_t accepted = 0;
    for (std::size_t run = 0; run < runs.size(); ++run) {
        std::string id = "run" + std::to_string(run);
        logging::RecordId record = 1;
        for (const core::TimedTemplate &message : runs[run]) {
            CheckMessage check;
            check.tpl = message.tpl;
            check.identifiers = testutil::internIds({id});
            check.record = record++;
            check.time = message.time;
            for (const CheckEvent &event : checker.feed(check)) {
                if (event.kind == CheckEventKind::Accepted)
                    ++accepted;
            }
        }
    }
    EXPECT_EQ(accepted, 50u);
    EXPECT_EQ(checker.stats().latencyAnomalies, 0u);
}

// --- Flight recorder -----------------------------------------------

TEST(FlightRecorderTest, DisabledConfigCapturesNothing)
{
    obs::FlightRecorderConfig config; // perNodeCapacity == 0
    EXPECT_FALSE(config.enabled());
    obs::FlightRecorder recorder(config);
    recorder.record("n1", 1.0, "line");
    EXPECT_EQ(recorder.linesRecorded(), 0u);
    EXPECT_TRUE(recorder.context().empty());
}

TEST(FlightRecorderTest, RingWrapsKeepingNewestLines)
{
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 3;
    obs::FlightRecorder recorder(config);
    for (int i = 1; i <= 5; ++i)
        recorder.record("n1", static_cast<double>(i),
                        "line" + std::to_string(i));
    EXPECT_EQ(recorder.linesRecorded(), 5u);
    std::vector<obs::ContextLine> context = recorder.context();
    ASSERT_EQ(context.size(), 3u);
    EXPECT_EQ(context[0].line, "line3");
    EXPECT_EQ(context[2].line, "line5");
}

TEST(FlightRecorderTest, ContextMergesNodesInTimeOrder)
{
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 4;
    obs::FlightRecorder recorder(config);
    recorder.record("compute-1", 2.0, "b");
    recorder.record("controller", 1.0, "a");
    recorder.record("compute-1", 3.0, "c");
    std::vector<obs::ContextLine> context = recorder.context();
    ASSERT_EQ(context.size(), 3u);
    EXPECT_EQ(context[0].line, "a");
    EXPECT_EQ(context[1].line, "b");
    EXPECT_EQ(context[2].line, "c");
}

TEST(FlightRecorderTest, NodeCapDropsRatherThanEvicts)
{
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 2;
    config.maxNodes = 1;
    obs::FlightRecorder recorder(config);
    recorder.record("n1", 1.0, "kept");
    recorder.record("n2", 2.0, "dropped");
    EXPECT_EQ(recorder.droppedLines(), 1u);
    ASSERT_EQ(recorder.context().size(), 1u);
    EXPECT_EQ(recorder.context()[0].node, "n1");
}

TEST(FlightRecorderTest, BundleStoreIsBounded)
{
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 1;
    config.maxBundles = 2;
    obs::FlightRecorder recorder(config);
    recorder.record("n1", 1.0, "a");
    for (int n = 1; n <= 3; ++n)
        recorder.freezeBundle() += "{\"n\":" + std::to_string(n);
    const std::string context =
        ",\"context\":[{\"node\":\"n1\",\"time\":1.000,\"line\":\"a\"}]}";
    ASSERT_EQ(recorder.bundles().size(), 2u);
    EXPECT_EQ(recorder.bundles()[0], "{\"n\":2" + context);
    EXPECT_EQ(recorder.droppedBundles(), 1u);
    EXPECT_EQ(recorder.bundleJsonLines(),
              "{\"n\":2" + context + "\n{\"n\":3" + context + "\n");
}

TEST(FlightRecorderTest, ZeroBundleCapDropsEveryFreeze)
{
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 1;
    config.maxBundles = 0;
    obs::FlightRecorder recorder(config);
    recorder.record("n1", 1.0, "a");
    recorder.freezeBundle() += "{\"n\":1";
    EXPECT_TRUE(recorder.bundles().empty());
    EXPECT_EQ(recorder.droppedBundles(), 1u);
    EXPECT_EQ(recorder.bundleJsonLines(), "");
}

TEST(FlightRecorderTest, FrozenContextIgnoresLaterLines)
{
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 2;
    obs::FlightRecorder recorder(config);
    recorder.record("n2", 2.0, "b \"quoted\"\t\x01");
    recorder.record("n1", 2.0, "a");
    recorder.record("n1", 1.0, "first");
    recorder.freezeBundle() += "{}";
    const std::string frozen =
        "{},\"context\":[{\"node\":\"n1\",\"time\":1.000,"
        "\"line\":\"first\"},{\"node\":\"n1\",\"time\":2.000,"
        "\"line\":\"a\"},{\"node\":\"n2\",\"time\":2.000,"
        "\"line\":\"b \\\"quoted\\\"\\t\\u0001\"}]}";
    ASSERT_EQ(recorder.bundles().size(), 1u);
    EXPECT_EQ(recorder.bundles()[0], frozen);

    // Overwrite every ring slot, with a new node in front of the old
    // ones in key order: the frozen bundle must not move.
    for (int i = 0; i < 10; ++i) {
        recorder.record("n0", 3.0 + i, std::string(40, 'x'));
        recorder.record("n1", 3.0 + i, "later");
        recorder.record("n2", 3.0 + i, "");
    }
    ASSERT_EQ(recorder.bundles().size(), 1u);
    EXPECT_EQ(recorder.bundles()[0], frozen);
}

// --- Monitor wiring ------------------------------------------------

namespace {

/** Ping/pong monitor fixture mirroring monitor_test. */
class FlightMonitorTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();
    logging::RecordId nextRecord = 1;

    std::unique_ptr<WorkflowMonitor>
    makeMonitor(MonitorConfig config = {})
    {
        return std::make_unique<WorkflowMonitor>(config, catalog,
                                                 automata());
    }

    std::vector<TaskAutomaton>
    automata()
    {
        logging::TemplateId ping =
            catalog->intern("svc-a", "ping <uuid>");
        logging::TemplateId pong =
            catalog->intern("svc-b", "pong <uuid>");
        std::vector<EventNode> events = {{ping, 0}, {pong, 0}};
        std::vector<DependencyEdge> edges = {{0, 1, true}};
        std::vector<TaskAutomaton> out;
        out.emplace_back("ping-pong", std::move(events),
                         std::move(edges));
        return out;
    }

    static MonitorConfig
    flightConfig()
    {
        MonitorConfig config;
        config.observability.flightRecorder.perNodeCapacity = 8;
        return config;
    }

    static LatencyProfile
    pingPongProfile()
    {
        LatencyProfile profile;
        profile.task = "ping-pong";
        profile.runs = 4;
        profile.total = {4, 0.5, 1.0, 1.0, 1.0};
        profile.edges[{0, 1}] = profile.total;
        return profile;
    }

    logging::LogRecord
    record(const std::string &service, const std::string &body,
           double t, logging::LogLevel level = logging::LogLevel::Info)
    {
        logging::LogRecord out;
        out.id = nextRecord++;
        out.timestamp = t;
        out.node = "controller";
        out.service = service;
        out.level = level;
        out.body = body;
        return out;
    }

    static std::string
    uuid(int which)
    {
        char buf[37];
        std::snprintf(buf, sizeof buf,
                      "%08d-aaaa-bbbb-cccc-dddddddddddd", which);
        return buf;
    }

    logging::LogRecord
    ping(int which, double t)
    {
        return record("svc-a", "ping " + uuid(which), t);
    }

    logging::LogRecord
    pong(int which, double t)
    {
        return record("svc-b", "pong " + uuid(which), t);
    }
};

} // namespace

TEST_F(FlightMonitorTest, UnconfiguredRecorderConstructsNothing)
{
    auto monitor = makeMonitor();
    EXPECT_FALSE(monitor->observabilityEnabled());
    EXPECT_EQ(monitor->observability(), nullptr);
    EXPECT_EQ(monitor->flightRecorder(), nullptr);
    monitor->feed(ping(1, 1.0));
    monitor->finish();
    EXPECT_EQ(monitor->forensicBundleJsonLines(), "");
}

TEST_F(FlightMonitorTest, FlightAloneEnablesObservability)
{
    auto monitor = makeMonitor(flightConfig());
    EXPECT_TRUE(monitor->observabilityEnabled());
    ASSERT_NE(monitor->flightRecorder(), nullptr);
    // Metrics and tracing stay off: their sinks remain empty.
    EXPECT_EQ(monitor->prometheusText(), "");
    EXPECT_EQ(monitor->chromeTraceJson(), "");
}

TEST_F(FlightMonitorTest, ReportsBitIdenticalWithRecorderOn)
{
    auto plain = makeMonitor();
    auto flighted = makeMonitor(flightConfig());

    auto runThrough = [this](WorkflowMonitor &monitor) {
        std::string out;
        logging::RecordId saved = nextRecord;
        nextRecord = 1;
        std::vector<logging::LogRecord> records = {
            ping(1, 1.0), ping(2, 2.0), pong(2, 3.0),
            record("svc-a", "exploded on " + uuid(3), 4.0,
                   logging::LogLevel::Error),
            pong(1, 30.0)};
        for (const logging::LogRecord &r : records)
            for (const MonitorReport &report : monitor.feed(r))
                out += reportToJson(report, monitor.catalog()) + "\n";
        for (const MonitorReport &report : monitor.finish())
            out += reportToJson(report, monitor.catalog()) + "\n";
        nextRecord = saved;
        return out;
    };

    std::string baseline = runThrough(*plain);
    EXPECT_EQ(baseline, runThrough(*flighted));
    EXPECT_FALSE(baseline.empty());
    // The recorder captured evidence without perturbing the verdicts.
    EXPECT_GT(flighted->flightRecorder()->linesRecorded(), 0u);
}

TEST_F(FlightMonitorTest, DivergenceAndTimeoutProduceBundles)
{
    auto monitor = makeMonitor(flightConfig());
    monitor->feed(ping(1, 1.0));
    monitor->feed(record("svc-a", "exploded on " + uuid(1), 1.5,
                         logging::LogLevel::Error));
    monitor->feed(ping(2, 2.0));
    for (const MonitorReport &report : monitor->finish())
        (void)report;

    const std::vector<std::string> &bundles =
        monitor->flightRecorder()->bundles();
    ASSERT_EQ(bundles.size(), 2u);
    EXPECT_NE(bundles[0].find("\"reason\":\"ERROR\""),
              std::string::npos);
    EXPECT_NE(bundles[1].find("\"reason\":\"TIMEOUT\""),
              std::string::npos);
    // Context carries the raw lines; identifiers the resolved uuid.
    EXPECT_NE(bundles[0].find("exploded on"), std::string::npos);
    EXPECT_NE(bundles[0].find(uuid(1)), std::string::npos);
    EXPECT_NE(monitor->forensicBundleJsonLines().find(
                  "\"kind\":\"BUNDLE\""),
              std::string::npos);
}

TEST_F(FlightMonitorTest, LatencyAnomalyProducesBundle)
{
    MonitorConfig config = flightConfig();
    config.latencyProfiles = {pingPongProfile()};
    config.latencyCheck.quantile = 100;
    config.latencyCheck.factor = 1.0;
    config.latencyCheck.slackSeconds = 0.0;
    auto monitor = makeMonitor(config);

    monitor->feed(ping(1, 1.0));
    auto reports = monitor->feed(pong(1, 4.0)); // budget is 1.0 s
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::LatencyAnomaly);

    const std::vector<std::string> &bundles =
        monitor->flightRecorder()->bundles();
    ASSERT_EQ(bundles.size(), 1u);
    EXPECT_NE(bundles[0].find("\"reason\":\"LATENCY\""),
              std::string::npos);
    EXPECT_NE(bundles[0].find("\"latency\":{"), std::string::npos);
}

TEST_F(FlightMonitorTest, MalformedLinesAreStillCaptured)
{
    auto monitor = makeMonitor(flightConfig());
    monitor->feedLine("not a log line");
    EXPECT_EQ(monitor->malformedLines(), 1u);
    std::vector<obs::ContextLine> context =
        monitor->flightRecorder()->context();
    ASSERT_EQ(context.size(), 1u);
    EXPECT_EQ(context[0].node, "<malformed>");
    EXPECT_EQ(context[0].line, "not a log line");
}

// --- Golden report stream ------------------------------------------

TEST_F(FlightMonitorTest, ReportStreamMatchesGoldenFixture)
{
    // One on-time accept, one latency anomaly, one divergence, one
    // end-of-stream timeout: pins VERDICT framing including the
    // start/duration fields and the nested latency object.
    MonitorConfig config;
    config.latencyProfiles = {pingPongProfile()};
    config.latencyCheck.quantile = 100;
    config.latencyCheck.factor = 1.0;
    config.latencyCheck.slackSeconds = 0.0;
    auto monitor = makeMonitor(config);

    std::string stream;
    std::vector<logging::LogRecord> records = {
        ping(1, 1.0),  pong(1, 1.5),  // accepted, 0.5 s
        ping(2, 2.0),  pong(2, 4.0),  // anomalous, 2.0 s
        ping(3, 5.0),
        record("svc-a", "exploded on " + uuid(3), 5.5,
               logging::LogLevel::Error),
        ping(4, 6.0),                 // left open: times out at finish
    };
    for (const logging::LogRecord &r : records)
        for (const MonitorReport &report : monitor->feed(r))
            stream += reportToJson(report, monitor->catalog()) + "\n";
    for (const MonitorReport &report : monitor->finish())
        stream += reportToJson(report, monitor->catalog()) + "\n";

    std::string path = std::string(CLOUDSEER_SOURCE_DIR) +
                       "/tests/golden/report_stream.jsonl";
    if (std::getenv("CLOUDSEER_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << stream;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden fixture " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(stream, buffer.str());
}

// --- End-to-end precision/recall -----------------------------------

namespace {

const eval::ModeledSystem &
evalModels()
{
    static eval::ModeledSystem system = [] {
        eval::ModelingConfig config;
        config.minRuns = 40;
        config.maxRuns = 150;
        return eval::buildModels(config);
    }();
    return system;
}

} // namespace

TEST(LatencyEval, MinedSystemProfilesCoverEveryTask)
{
    const eval::ModeledSystem &models = evalModels();
    eval::LatencyMiningConfig config;
    std::vector<LatencyProfile> profiles =
        eval::mineSystemProfiles(models, config);
    ASSERT_EQ(profiles.size(), models.automata.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        EXPECT_EQ(profiles[i].task, models.automata[i].name());
        EXPECT_TRUE(profiles[i].hasSamples())
            << profiles[i].task << " mined no samples";
        EXPECT_EQ(profiles[i].runs, config.runsPerTask);
        EXPECT_TRUE(profiles[i].total.wellFormed());
    }
}

TEST(LatencyEval, PrecisionAndRecallOnDelayFaults)
{
    const eval::ModeledSystem &models = evalModels();
    std::vector<LatencyProfile> profiles =
        eval::mineSystemProfiles(models, eval::LatencyMiningConfig{});

    eval::LatencyEvalConfig config; // default Delay scenario, p99
    config.targetProblems = 25;
    eval::LatencyEvalResult result =
        eval::runLatencyExperiment(models, profiles, config);

    EXPECT_GT(result.delayProblems, 0);
    EXPECT_GT(result.anomaliesReported, 0);
    // The acceptance bar: both >= 0.9 at the default p99 policy.
    EXPECT_GE(result.precision(), 0.9)
        << eval::latencyEvalTable({result});
    EXPECT_GE(result.recall(), 0.9) << eval::latencyEvalTable({result});
    // Delays are 15-30 s: detection lands in the same order.
    EXPECT_GT(result.detectionDelay.mean(), 0.0);

    std::string json = eval::latencyEvalJson(result);
    EXPECT_NE(json.find("\"kind\":\"LATENCY_EVAL\""),
              std::string::npos);
    EXPECT_NE(json.find("\"precision\":"), std::string::npos);
}

// --- Pinned forensic bundles ---------------------------------------

namespace {

/**
 * A seeded hardened, flight-armed monitor over a perturbed wire
 * stream: drops, duplicates, truncation, corruption and skew make
 * problem reports, eight-line rings wrap many times over, and the
 * reports (60 of them) overflow a store of eight bundles unless the
 * store is given more room.
 */
struct PinnedFlightRun
{
    std::vector<std::string> lines;
    std::unique_ptr<WorkflowMonitor> monitor;

    explicit PinnedFlightRun(std::size_t max_bundles = 8)
    {
        eval::DatasetConfig dataset_config;
        dataset_config.users = 4;
        dataset_config.tasksPerUser = 40;
        dataset_config.seed = 4242;
        eval::GeneratedDataset dataset =
            eval::generateDataset(dataset_config);

        collect::PerturbationConfig adversity;
        adversity.dropProbability = 0.02;
        adversity.duplicateProbability = 0.02;
        adversity.truncateProbability = 0.02;
        adversity.corruptProbability = 0.02;
        adversity.clockSkewMaxSeconds = 0.05;
        adversity.seed = 17;
        lines = collect::StreamPerturber(adversity)
                    .apply(dataset.stream)
                    .lines;

        MonitorConfig config;
        config.ingest = hardenedIngestDefaults();
        config.observability.flightRecorder.perNodeCapacity = 8;
        config.observability.flightRecorder.maxBundles = max_bundles;
        monitor = std::make_unique<WorkflowMonitor>(
            config, evalModels().catalog, evalModels().automataCopy());
    }
};

/** FNV-1a over the bytes, as 16 hex digits. */
std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
}

} // namespace

TEST(PinnedBundles, BundleBytesAndOrderArePinned)
{
    PinnedFlightRun run;
    for (const std::string &line : run.lines)
        run.monitor->feedLine(line);
    run.monitor->finish();
    const obs::FlightRecorder &flight = *run.monitor->flightRecorder();
    const std::string bundles = run.monitor->forensicBundleJsonLines();

    // Pinned from the recorder that rendered each bundle eagerly when
    // it was frozen: the same bytes, the same retained order, the same
    // drop count.
    ASSERT_EQ(run.lines.size(), 1922u);
    EXPECT_EQ(flight.bundles().size(), 8u);
    EXPECT_EQ(flight.retainedBundles(), 8u);
    EXPECT_EQ(flight.droppedBundles(), 52u);
    EXPECT_EQ(bundles.size(), 74328u);
    EXPECT_EQ(fnv1aHex(bundles), "d462e9eab158e4ad");
    // Malformed wire lines are part of the frozen context.
    EXPECT_NE(bundles.find("\"node\":\"<malformed>\""), std::string::npos);
}

TEST(PinnedBundles, FrozenBundlesOutliveRingOverwrites)
{
    PinnedFlightRun run(64);
    const obs::FlightRecorder &flight = *run.monitor->flightRecorder();
    std::size_t at = 0;
    while (at < run.lines.size() && flight.retainedBundles() < 8)
        run.monitor->feedLine(run.lines[at++]);
    const std::vector<std::string> before = flight.bundles();
    ASSERT_EQ(before.size(), 8u);

    // 1,000 more lines overwrite every eight-line ring many times.
    ASSERT_GE(run.lines.size() - at, 1000u);
    for (std::size_t end = at + 1000; at < end; ++at)
        run.monitor->feedLine(run.lines[at]);

    // The bundles frozen before are byte for byte what they were.
    const std::vector<std::string> after = flight.bundles();
    EXPECT_EQ(flight.droppedBundles(), 0u);
    ASSERT_GT(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(after[i], before[i]) << "bundle " << i;
}
