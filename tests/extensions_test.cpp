/**
 * @file
 * Tests for the extension features: per-task timeout estimation (the
 * paper's stated future work), automaton refinement from on-the-fly
 * dependency removals (automating the §5.6 mitigation), and the
 * offline statistical baseline.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/offline_detector.hpp"
#include "common/rng.hpp"
#include "core/automaton/refinement.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/timeout_estimator.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/detection_harness.hpp"
#include "eval/timeout_learning.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::makeLetterAutomaton;
using cloudseer::testutil::makeMessage;

// --- TimeoutEstimator ---------------------------------------------------

TEST(TimeoutEstimator, PolicyFromObservedGaps)
{
    TimeoutEstimator estimator;
    estimator.observeRun("boot", {0.0, 1.0, 3.5, 4.0});
    estimator.observeRun("boot", {0.0, 0.5, 1.0, 1.5});
    estimator.observeRun("stop", {0.0, 0.2, 0.4});
    EXPECT_EQ(estimator.runsObserved("boot"), 2u);
    EXPECT_DOUBLE_EQ(estimator.maxGap("boot"), 2.5);
    EXPECT_DOUBLE_EQ(estimator.maxGap("stop"), 0.2);

    TimeoutPolicy policy = estimator.estimate(3.0, 1.0, 10.0);
    EXPECT_DOUBLE_EQ(policy.timeoutFor("boot"), 7.5);
    EXPECT_DOUBLE_EQ(policy.timeoutFor("stop"), 1.0) << "floor applies";
    EXPECT_DOUBLE_EQ(policy.timeoutFor("unknown"), 10.0);
}

TEST(TimeoutEstimator, NegativeGapsClampToZero)
{
    TimeoutEstimator estimator;
    estimator.observeRun("t", {1.0, 0.9, 2.0}); // skewed arrival
    EXPECT_DOUBLE_EQ(estimator.maxGap("t"), 1.1);
}

TEST(TimeoutPolicy, CandidatesTakeTheMostGenerous)
{
    TimeoutPolicy policy;
    policy.defaultTimeout = 10.0;
    policy.perTask = {{"boot", 8.0}, {"stop", 2.0}};
    EXPECT_DOUBLE_EQ(policy.timeoutForCandidates({"stop"}), 2.0);
    EXPECT_DOUBLE_EQ(policy.timeoutForCandidates({"stop", "boot"}), 8.0);
    EXPECT_DOUBLE_EQ(policy.timeoutForCandidates({"stop", "mystery"}),
                     10.0);
    EXPECT_DOUBLE_EQ(policy.timeoutForCandidates({}), 10.0);
}

TEST(TimeoutPolicy, EmptyTableResolvesLikeThePerNameLoop)
{
    // The per-name loop timeoutForCandidates ran before an empty table
    // skipped it: the result and both tallies must not change.
    auto reference = [](const TimeoutPolicy &policy,
                        const std::vector<std::string> &tasks,
                        std::uint64_t &resolutions,
                        std::uint64_t &fallbacks) {
        ++resolutions;
        bool any_entry = false;
        for (const std::string &task : tasks) {
            if (policy.perTask.count(task)) {
                any_entry = true;
                break;
            }
        }
        if (!any_entry)
            ++fallbacks;
        if (tasks.empty())
            return policy.defaultTimeout;
        double best = 0.0;
        for (const std::string &task : tasks)
            best = std::max(best, policy.timeoutFor(task));
        return best;
    };
    const std::vector<std::string> names = {"boot", "stop", "delete",
                                            "mystery", ""};
    common::Rng rng(42);
    for (int round = 0; round < 200; ++round) {
        TimeoutPolicy policy;
        policy.defaultTimeout = round % 4 == 0 ? -rng.uniformReal(0.0, 5.0)
                              : round % 4 == 1 ? 0.0
                                               : rng.uniformReal(0.0, 30.0);
        std::uint64_t resolutions = 0, fallbacks = 0;
        for (int call = 0; call < 20; ++call) {
            std::vector<std::string> tasks;
            const int count = rng.uniformInt(0, 4);
            for (int i = 0; i < count; ++i)
                tasks.push_back(rng.pick(names));
            const double want =
                reference(policy, tasks, resolutions, fallbacks);
            EXPECT_EQ(policy.timeoutForCandidates(tasks), want)
                << "default " << policy.defaultTimeout;
            EXPECT_EQ(policy.resolutions, resolutions);
            EXPECT_EQ(policy.defaultFallbacks, fallbacks);
        }
    }
}

TEST(TimeoutLearning, PerTaskTimeoutsTrackTaskDuration)
{
    TimeoutPolicy policy = eval::learnTimeoutPolicy(30, 7, 3.0, 1.0);
    ASSERT_EQ(policy.perTask.size(), sim::kTaskTypeCount);
    // Boot has the slowest steps (image creation, hypervisor boot);
    // its learned timeout must exceed a quick task's.
    EXPECT_GT(policy.timeoutFor("boot"), policy.timeoutFor("stop"));
    for (const auto &[task, timeout] : policy.perTask) {
        EXPECT_GT(timeout, 0.5) << task;
        EXPECT_LT(timeout, 60.0) << task;
    }
}

TEST(TimeoutLearning, LearnedPolicyKeepsCleanRunsQuiet)
{
    // A monitor with learned per-task timeouts must not report false
    // timeouts on a clean workload.
    eval::ModelingConfig modeling;
    modeling.minRuns = 40;
    modeling.maxRuns = 150;
    eval::ModeledSystem models = eval::buildModels(modeling);
    TimeoutPolicy policy = eval::learnTimeoutPolicy(40, 7, 3.0, 2.0);

    eval::DatasetConfig dataset;
    dataset.users = 3;
    dataset.tasksPerUser = 10;
    dataset.seed = 17;
    core::MonitorConfig config;
    config.timeoutSeconds = policy.defaultTimeout;
    config.perTaskTimeouts = policy.perTask;
    eval::DatasetResult result =
        eval::runDataset(models, dataset, config);
    EXPECT_EQ(result.acceptedCorrect, result.totalTasks);
    EXPECT_EQ(result.stats.timeoutsReported, 0u);
}

// --- refinement ----------------------------------------------------------

TEST(Refinement, Figure4AtTheModelLevel)
{
    LetterCatalog letters;
    TaskAutomaton original = makeLetterAutomaton(
        letters, "fig4", {"A", "B", "C", "D"},
        {{"A", "B"}, {"B", "C"}, {"C", "D"}});

    // Remove B -> C (events 1 -> 2).
    TaskAutomaton refined = refineAutomaton(original, {{1, 2}});
    EXPECT_EQ(refined.eventCount(), 4u);
    // Weakened: A->B, A->C, B->D, C->D.
    EXPECT_EQ(refined.edgeCount(), 4u);

    // The refined automaton accepts both ABCD and ACBD natively.
    for (const std::vector<const char *> &order :
         {std::vector<const char *>{"A", "B", "C", "D"},
          std::vector<const char *>{"A", "C", "B", "D"}}) {
        AutomatonInstance instance(&refined);
        for (const char *m : order)
            ASSERT_TRUE(instance.consume(letters.id(m)));
        EXPECT_TRUE(instance.accepting());
    }
    // But still rejects C before A.
    AutomatonInstance instance(&refined);
    EXPECT_FALSE(instance.canConsume(letters.id("C")));
}

TEST(Refinement, UnknownEdgesIgnored)
{
    LetterCatalog letters;
    TaskAutomaton original = makeLetterAutomaton(
        letters, "t", {"A", "B"}, {{"A", "B"}});
    TaskAutomaton refined = refineAutomaton(original, {{1, 0}, {5, 9}});
    EXPECT_EQ(refined.edgeCount(), 1u);
}

TEST(Refinement, FromRemovalCountsRespectsThreshold)
{
    LetterCatalog letters;
    std::vector<TaskAutomaton> automata;
    automata.push_back(makeLetterAutomaton(
        letters, "t", {"A", "B", "C"}, {{"A", "B"}, {"B", "C"}}));

    RemovalCounts removals;
    removals["t"][{1, 2}] = 2; // B -> C removed twice

    auto unchanged = refineFromRemovals(automata, removals, 3);
    EXPECT_EQ(unchanged[0].edgeCount(), 2u);

    auto refined = refineFromRemovals(automata, removals, 2);
    // B->C removed; weakening yields A->C (plus A->B).
    EXPECT_EQ(refined[0].edgeCount(), 2u);
    AutomatonInstance instance(&refined[0]);
    EXPECT_TRUE(instance.consume(letters.id("A")));
    EXPECT_TRUE(instance.consume(letters.id("C")));
    EXPECT_TRUE(instance.consume(letters.id("B")));
    EXPECT_TRUE(instance.accepting());
}

TEST(Refinement, CheckerFeedsTheRefinementLoop)
{
    // Reordered streams teach the checker which dependency is false;
    // the refined automaton then handles the reorder without any
    // recovery.
    LetterCatalog letters;
    TaskAutomaton chain = makeLetterAutomaton(
        letters, "chain", {"A", "B", "C"}, {{"A", "B"}, {"B", "C"}});

    InterleavedChecker checker(CheckerConfig{}, {&chain});
    logging::RecordId rid = 1;
    double t = 0.0;
    // Three reordered sequences A, C, B with distinct identifiers.
    for (int s = 0; s < 3; ++s) {
        std::string id = "seq" + std::to_string(s);
        checker.feed(makeMessage(letters, "A", {id}, rid++, t += 0.1));
        checker.feed(makeMessage(letters, "C", {id}, rid++, t += 0.1));
        checker.feed(makeMessage(letters, "B", {id}, rid++, t += 0.1));
    }
    EXPECT_EQ(checker.stats().recoveredFalseDependency, 3u);
    ASSERT_EQ(checker.dependencyRemovals().count("chain"), 1u);

    std::vector<TaskAutomaton> refined = refineFromRemovals(
        {chain}, checker.dependencyRemovals(), 3);
    InterleavedChecker improved(CheckerConfig{}, {&refined[0]});
    rid = 1;
    t = 0.0;
    improved.feed(makeMessage(letters, "A", {"x"}, rid++, t += 0.1));
    improved.feed(makeMessage(letters, "C", {"x"}, rid++, t += 0.1));
    auto events =
        improved.feed(makeMessage(letters, "B", {"x"}, rid++, t += 0.1));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, CheckEventKind::Accepted);
    EXPECT_EQ(improved.stats().recoveredFalseDependency, 0u)
        << "no recovery needed once the model is refined";
}

// --- offline baseline ----------------------------------------------------

namespace {

std::vector<logging::LogRecord>
syntheticStream(double start, int windows, int per_window,
                const std::string &body, logging::LogLevel level =
                                              logging::LogLevel::Info)
{
    std::vector<logging::LogRecord> out;
    logging::RecordId rid = 1;
    for (int w = 0; w < windows; ++w) {
        for (int i = 0; i < per_window; ++i) {
            logging::LogRecord record;
            record.id = rid++;
            record.timestamp =
                start + w * 10.0 + i * (9.0 / per_window);
            record.node = "controller";
            record.service = "svc";
            record.level = level;
            record.body = body;
            out.push_back(record);
        }
    }
    return out;
}

} // namespace

TEST(OfflineBaseline, QuietOnCleanStreams)
{
    baseline::OfflineDetectorConfig config;
    baseline::OfflineAnomalyDetector detector(config);
    detector.train(syntheticStream(0.0, 20, 5, "steady message"));
    EXPECT_GT(detector.trainingWindows(), 10u);
    auto anomalies =
        detector.analyze(syntheticStream(0.0, 10, 5, "steady message"));
    EXPECT_TRUE(anomalies.empty());
}

TEST(OfflineBaseline, FlagsErrorMessages)
{
    baseline::OfflineDetectorConfig config;
    baseline::OfflineAnomalyDetector detector(config);
    detector.train(syntheticStream(0.0, 20, 5, "steady message"));

    auto stream = syntheticStream(0.0, 10, 5, "steady message");
    stream[27].level = logging::LogLevel::Error;
    auto anomalies = detector.analyze(stream);
    ASSERT_EQ(anomalies.size(), 1u);
    EXPECT_TRUE(anomalies[0].hadError);
}

TEST(OfflineBaseline, FlagsUnseenTemplates)
{
    baseline::OfflineDetectorConfig config;
    baseline::OfflineAnomalyDetector detector(config);
    detector.train(syntheticStream(0.0, 20, 5, "steady message"));

    auto stream = syntheticStream(0.0, 5, 5, "steady message");
    logging::LogRecord odd;
    odd.id = 999;
    odd.timestamp = 12.0;
    odd.node = "controller";
    odd.service = "svc";
    odd.body = "never seen before";
    stream.push_back(odd);
    auto anomalies = detector.analyze(stream);
    ASSERT_EQ(anomalies.size(), 1u);
    EXPECT_TRUE(anomalies[0].hadUnseenTemplate);
}

TEST(OfflineBaseline, FlagsCountDeviations)
{
    baseline::OfflineDetectorConfig config;
    config.minDeviantTemplates = 1;
    baseline::OfflineAnomalyDetector detector(config);
    detector.train(syntheticStream(0.0, 30, 5, "steady message"));

    // One window with 25 copies instead of 5.
    auto stream = syntheticStream(0.0, 3, 5, "steady message");
    auto burst = syntheticStream(30.0, 1, 25, "steady message");
    for (auto &record : burst)
        stream.push_back(record);
    auto anomalies = detector.analyze(stream);
    ASSERT_GE(anomalies.size(), 1u);
    EXPECT_GE(anomalies.back().score, 1.0);
}

TEST(OfflineBaseline, HarnessComparesAgainstCloudSeer)
{
    eval::DetectionConfig config;
    config.point = sim::InjectionPoint::AmqpReceiver;
    config.targetProblems = 4;
    config.seed = 23;
    eval::BaselineResult baseline_result =
        eval::runOfflineBaseline(config);
    // The baseline must at least catch some problems (error windows),
    // and its latency is bounded below by waiting for the stream end.
    EXPECT_GT(baseline_result.stats.truePositives +
                  baseline_result.stats.falseNegatives,
              0u);
    if (baseline_result.detectionLatency.count() > 0) {
        EXPECT_GT(baseline_result.detectionLatency.mean(), 10.0);
    }
}
