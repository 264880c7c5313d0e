/**
 * @file
 * Tests for seer-scope (DESIGN.md §11): histogram bucket math, span
 * lifecycle through the live checker, Chrome-trace golden output,
 * the corrected decisiveFraction denominator, and the monitor-level
 * null-sink guarantee.
 *
 * The golden trace fixture can be regenerated by running this binary
 * with CLOUDSEER_UPDATE_GOLDEN=1 in the environment (writes into the
 * source tree, then the comparison passes trivially).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/pulse.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::obs;

// --- Histogram buckets ---------------------------------------------

TEST(HistogramTest, LogLinearBucketLayout)
{
    Histogram h(0, 2); // [1, 100): 1..9, 10..90
    EXPECT_EQ(h.buckets(), 18u);
    EXPECT_DOUBLE_EQ(h.bucketLower(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketUpper(0), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLower(9), 10.0);
    EXPECT_DOUBLE_EQ(h.bucketUpper(9), 20.0);
    EXPECT_DOUBLE_EQ(h.bucketUpper(17), 100.0);
}

TEST(HistogramTest, BoundaryValuesLandInTheirBucket)
{
    Histogram h(0, 2);
    h.record(1.0); // exactly the first lower bound
    EXPECT_EQ(h.bucketHits(0), 1u);
    h.record(2.0); // exactly a boundary: belongs to [2, 3)
    EXPECT_EQ(h.bucketHits(1), 1u);
    EXPECT_EQ(h.bucketHits(0), 1u);
    h.record(99.999); // just inside the last bucket [90, 100)
    EXPECT_EQ(h.bucketHits(17), 1u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(HistogramTest, OutOfRangeTalliesUnderflowAndOverflow)
{
    Histogram h(0, 2);
    h.record(0.5);   // below 10^0
    h.record(100.0); // exactly the top boundary counts as overflow
    h.record(1e9);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    // Out-of-range samples still shape count/sum/min/max.
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 1e9);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 100.0 + 1e9);
}

TEST(HistogramTest, PercentileIsBucketUpperBoundClampedToExtremes)
{
    Histogram h(0, 2);
    for (int v = 1; v <= 10; ++v)
        h.record(static_cast<double>(v));
    // Rank 5 lands in bucket [5, 6): report its upper bound so the
    // estimate never under-reports.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 6.0);
    // The top ranks clamp to the exact maximum, not the bucket bound.
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroes)
{
    Histogram h(-1, 3);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 0.0);
}

// --- Registry ------------------------------------------------------

TEST(MetricsRegistryTest, CounterSetIsMonotonic)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("seer_x_total", "x");
    c.set(5);
    c.set(3); // a stale sample must never move the counter backwards
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(&c, &registry.counter("seer_x_total", "other help"));
}

TEST(MetricsRegistryTest, PrometheusTextExposesAllInstrumentKinds)
{
    MetricsRegistry registry;
    registry.counter("seer_a_total", "a counter").set(7);
    registry.gauge("seer_b", "a gauge").set(2.5);
    Histogram &h = registry.histogram("seer_c_us", "a histogram", 0, 2);
    h.record(3.0);
    h.record(50.0);

    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("# TYPE seer_a_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("seer_a_total 7"), std::string::npos);
    EXPECT_NE(text.find("# TYPE seer_b gauge"), std::string::npos);
    EXPECT_NE(text.find("seer_b 2.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE seer_c_us histogram"),
              std::string::npos);
    // Cumulative le-buckets and the +Inf terminator carrying count.
    EXPECT_NE(text.find("seer_c_us_bucket{le=\"4\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("seer_c_us_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("seer_c_us_count 2"), std::string::npos);
}

// --- Tracer lifecycle ----------------------------------------------

TEST(ExecutionTracerTest, EndSpanIsIdempotentAndSafeOnUnknownGroups)
{
    ExecutionTracer tracer;
    tracer.annotate(99, 1.0, ConsumeAnnotation::Decisive); // unknown
    tracer.endSpan(99, 1.0, SpanEnd::Pruned);              // unknown

    tracer.beginSpan(1, 1.0);
    tracer.annotate(1, 1.5, ConsumeAnnotation::Decisive);
    tracer.endSpan(1, 2.0, SpanEnd::Accepted, "task", 2);
    tracer.endSpan(1, 3.0, SpanEnd::Pruned); // already closed: no-op

    ASSERT_EQ(tracer.closedSpans().size(), 1u);
    const ExecutionSpan &span = tracer.closedSpans().front();
    EXPECT_EQ(span.endReason, SpanEnd::Accepted);
    EXPECT_DOUBLE_EQ(span.start, 1.0);
    EXPECT_DOUBLE_EQ(span.end, 2.0);
    EXPECT_EQ(span.task, "task");
    EXPECT_EQ(span.messages, 2u);
    ASSERT_EQ(span.events.size(), 1u);
    EXPECT_EQ(span.events[0].kind, ConsumeAnnotation::Decisive);
    EXPECT_EQ(tracer.openSpans(), 0u);
}

TEST(ExecutionTracerTest, RetentionDropsOldestClosedSpans)
{
    ExecutionTracer tracer(2);
    for (std::uint64_t g = 1; g <= 3; ++g) {
        tracer.beginSpan(g, static_cast<double>(g));
        tracer.endSpan(g, static_cast<double>(g) + 0.5,
                       SpanEnd::Accepted);
    }
    EXPECT_EQ(tracer.closedSpans().size(), 2u);
    EXPECT_EQ(tracer.droppedSpans(), 1u);
    EXPECT_EQ(tracer.closedSpans().front().group, 2u);
}

TEST(ExecutionTracerTest, AttachedHistogramsRecordAtClose)
{
    Histogram duration(-3, 5);
    Histogram messages(0, 5);
    ExecutionTracer tracer;
    tracer.attachHistograms(&duration, &messages);
    tracer.beginSpan(1, 10.0);
    tracer.endSpan(1, 12.5, SpanEnd::Accepted, "t", 4);
    EXPECT_EQ(duration.count(), 1u);
    EXPECT_DOUBLE_EQ(duration.maxSeen(), 2.5);
    EXPECT_EQ(messages.count(), 1u);
    EXPECT_DOUBLE_EQ(messages.maxSeen(), 4.0);
}

// --- Spans through the live checker --------------------------------

namespace {

/** Two-event chain A -> B over letter templates, with a tracer. */
struct TracedChecker
{
    testutil::LetterCatalog letters;
    core::TaskAutomaton automaton;
    ExecutionTracer tracer;
    core::InterleavedChecker checker;

    TracedChecker()
        : automaton(testutil::makeLetterAutomaton(
              letters, "ab", {"A", "B"}, {{"A", "B"}})),
          checker(core::CheckerConfig{}, {&automaton})
    {
        checker.setTracer(&tracer);
    }
};

} // namespace

TEST(CheckerSpanTest, AcceptedGroupClosesWithAnnotations)
{
    TracedChecker t;
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1,
                                         1.0));
    t.checker.feed(testutil::makeMessage(t.letters, "B", {"u1"}, 2,
                                         2.0));

    ASSERT_EQ(t.tracer.closedSpans().size(), 1u);
    const ExecutionSpan &span = t.tracer.closedSpans().front();
    EXPECT_EQ(span.endReason, SpanEnd::Accepted);
    EXPECT_EQ(span.task, "ab");
    EXPECT_EQ(span.messages, 2u);
    EXPECT_DOUBLE_EQ(span.start, 1.0);
    EXPECT_DOUBLE_EQ(span.end, 2.0);
    // First message started the sequence (recovery b), second was a
    // decisive case-1 consumption.
    ASSERT_EQ(span.events.size(), 2u);
    EXPECT_EQ(span.events[0].kind,
              ConsumeAnnotation::RecoveryNewSequence);
    EXPECT_EQ(span.events[1].kind, ConsumeAnnotation::Decisive);
    EXPECT_EQ(t.tracer.openSpans(), 0u);
}

TEST(CheckerSpanTest, TimedOutGroupClosesWithTimeoutFate)
{
    TracedChecker t;
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1,
                                         1.0));
    EXPECT_EQ(t.tracer.openSpans(), 1u);
    std::vector<core::CheckEvent> events =
        t.checker.sweepTimeouts(50.0, 10.0);
    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(t.tracer.closedSpans().size(), 1u);
    EXPECT_EQ(t.tracer.closedSpans().front().endReason,
              SpanEnd::TimedOut);
    EXPECT_DOUBLE_EQ(t.tracer.closedSpans().front().end, 50.0);
}

TEST(CheckerSpanTest, ShedGroupClosesWithShedFate)
{
    TracedChecker t;
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1,
                                         1.0));
    std::vector<core::CheckEvent> events = t.checker.shedToCap(0, 2.0);
    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(t.tracer.closedSpans().size(), 1u);
    EXPECT_EQ(t.tracer.closedSpans().front().endReason, SpanEnd::Shed);
}

TEST(CheckerSpanTest, EndOfStreamClosesOpenSpans)
{
    TracedChecker t;
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"u1"}, 1,
                                         1.0));
    t.checker.finish(2.0);
    ASSERT_EQ(t.tracer.closedSpans().size(), 1u);
    EXPECT_EQ(t.tracer.closedSpans().front().endReason,
              SpanEnd::EndOfStream);
    EXPECT_EQ(t.tracer.openSpans(), 0u);
}

// --- Golden Chrome trace -------------------------------------------

TEST(CheckerSpanTest, ChromeTraceMatchesGoldenFixture)
{
    TracedChecker t;
    // One accepted execution, one left open to end-of-stream: the
    // trace exercises both complete-span fates and instant events.
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"g1"}, 1,
                                         1.0));
    t.checker.feed(testutil::makeMessage(t.letters, "B", {"g1"}, 2,
                                         2.5));
    t.checker.feed(testutil::makeMessage(t.letters, "A", {"g2"}, 3,
                                         3.0));
    t.checker.finish(4.0);

    std::string trace = t.tracer.chromeTraceJson();
    std::string path = std::string(CLOUDSEER_SOURCE_DIR) +
                       "/tests/golden/obs_trace_two_tasks.json";
    if (std::getenv("CLOUDSEER_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << trace;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden fixture " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(trace, buffer.str());
}

// --- decisiveFraction denominator (satellite fix) ------------------

TEST(CheckerStatsTest, DecisiveFractionCountsPassUnknownMessages)
{
    core::CheckerStats stats;
    stats.decisive = 3;
    stats.recoveredPassUnknown = 1;
    // Before the fix the pass-unknown message was left out of the
    // denominator and this read 1.0.
    EXPECT_DOUBLE_EQ(stats.decisiveFraction(), 0.75);

    stats.ambiguous = 2;
    stats.recoveredNewSequence = 1;
    stats.recoveredOtherSet = 1;
    stats.recoveredFalseDependency = 1;
    stats.unmatched = 1;
    EXPECT_DOUBLE_EQ(stats.decisiveFraction(), 0.3);

    core::CheckerStats empty;
    EXPECT_DOUBLE_EQ(empty.decisiveFraction(), 0.0);
}

// --- Monitor-level wiring ------------------------------------------

namespace {

/** Ping/pong monitor fixture mirroring ingest_test. */
class ObsMonitorTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();
    logging::RecordId nextRecord = 1;

    std::unique_ptr<core::WorkflowMonitor>
    makeMonitor(const obs::ObsConfig &obs_config)
    {
        core::MonitorConfig config;
        config.observability = obs_config;
        return std::make_unique<core::WorkflowMonitor>(config, catalog,
                                                       automata());
    }

    std::vector<core::TaskAutomaton>
    automata()
    {
        logging::TemplateId ping =
            catalog->intern("svc-a", "ping <uuid>");
        logging::TemplateId pong =
            catalog->intern("svc-b", "pong <uuid>");
        std::vector<core::EventNode> events = {{ping, 0}, {pong, 0}};
        std::vector<core::DependencyEdge> edges = {{0, 1, true}};
        std::vector<core::TaskAutomaton> out;
        out.emplace_back("ping-pong", std::move(events),
                         std::move(edges));
        return out;
    }

    logging::LogRecord
    record(const std::string &service, const std::string &body,
           double t)
    {
        logging::LogRecord out;
        out.id = nextRecord++;
        out.timestamp = t;
        out.node = "controller";
        out.service = service;
        out.level = logging::LogLevel::Info;
        out.body = body;
        return out;
    }

    static std::string
    uuid(int which)
    {
        char buf[37];
        std::snprintf(buf, sizeof buf,
                      "%08d-1111-2222-3333-444444444444", which);
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

TEST_F(ObsMonitorTest, NullSinkByDefault)
{
    auto monitor = makeMonitor(obs::ObsConfig{});
    EXPECT_FALSE(monitor->observabilityEnabled());
    EXPECT_EQ(monitor->observability(), nullptr);
    monitor->feed(ping(1, 1.0));
    monitor->feed(pong(1, 2.0));
    EXPECT_EQ(monitor->prometheusText(), "");
    EXPECT_EQ(monitor->healthSnapshotJson(), "");
    EXPECT_EQ(monitor->chromeTraceJson(), "");
}

TEST_F(ObsMonitorTest, InstrumentedMonitorReportsIdentically)
{
    auto plain = makeMonitor(obs::ObsConfig{});
    obs::ObsConfig full;
    full.metrics = true;
    full.tracing = true;
    full.snapshotIntervalSeconds = 5.0;
    auto instrumented = makeMonitor(full);

    auto runThrough = [this](core::WorkflowMonitor &monitor) {
        std::string out;
        logging::RecordId saved = nextRecord;
        nextRecord = 1;
        std::vector<logging::LogRecord> records = {
            ping(1, 1.0), ping(2, 2.0), pong(2, 3.0), pong(1, 20.0)};
        for (const logging::LogRecord &r : records)
            for (const core::MonitorReport &report : monitor.feed(r))
                out +=
                    core::reportToJson(report, monitor.catalog()) + "\n";
        for (const core::MonitorReport &report : monitor.finish())
            out += core::reportToJson(report, monitor.catalog()) + "\n";
        nextRecord = saved;
        return out;
    };

    EXPECT_EQ(runThrough(*plain), runThrough(*instrumented));
    EXPECT_EQ(plain->stats().decisive,
              instrumented->stats().decisive);
    EXPECT_EQ(plain->stats().timeoutsReported,
              instrumented->stats().timeoutsReported);
}

TEST_F(ObsMonitorTest, SnapshotsFollowTheMessageClock)
{
    obs::ObsConfig config;
    config.snapshotIntervalSeconds = 10.0;
    auto monitor = makeMonitor(config);
    monitor->feed(ping(1, 1.0));  // first snapshot (none yet)
    monitor->feed(pong(1, 5.0));  // 4s since: below the interval
    monitor->feed(ping(2, 12.0)); // 11s since: due
    monitor->feed(pong(2, 13.0));
    monitor->finish(); // closing snapshot

    const auto &snaps = monitor->observability()->snapshots();
    ASSERT_EQ(snaps.size(), 3u);
    EXPECT_DOUBLE_EQ(snaps[0].time, 1.0);
    EXPECT_DOUBLE_EQ(snaps[1].time, 12.0);
    EXPECT_EQ(snaps.back().accepted, 2u);
    EXPECT_EQ(snaps.back().messages, 4u);

    // The JSON series renders one line per snapshot.
    std::string lines = monitor->observability()->snapshotJsonLines();
    EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 3);
    EXPECT_NE(lines.find("\"kind\":\"HEALTH\""), std::string::npos);
}

TEST_F(ObsMonitorTest, PrometheusTextCarriesTheMetricCatalog)
{
    obs::ObsConfig config;
    config.metrics = true;
    config.tracing = true;
    auto monitor = makeMonitor(config);
    monitor->feed(ping(1, 1.0));
    monitor->feed(pong(1, 2.0));

    std::string text = monitor->prometheusText();
    EXPECT_NE(text.find("seer_messages_total 2"), std::string::npos);
    EXPECT_NE(text.find("seer_accepted_total 1"), std::string::npos);
    EXPECT_NE(text.find("seer_active_groups 0"), std::string::npos);
    EXPECT_NE(text.find("seer_interner_size"), std::string::npos);
    EXPECT_NE(text.find("seer_feed_latency_us_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("seer_trace_open_spans"), std::string::npos);

    // The trace saw the accepted execution.
    std::string trace = monitor->chromeTraceJson();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("ping-pong"), std::string::npos);
    EXPECT_NE(trace.find("\"accepted\""), std::string::npos);
}

TEST_F(ObsMonitorTest, HealthSampleFlattensLiveState)
{
    obs::ObsConfig config;
    config.metrics = true;
    auto monitor = makeMonitor(config);
    monitor->feed(ping(1, 1.0)); // left open: one live group

    obs::HealthSample sample = monitor->healthSample();
    EXPECT_DOUBLE_EQ(sample.time, 1.0);
    EXPECT_EQ(sample.messages, 1u);
    EXPECT_EQ(sample.activeGroups, 1u);
    EXPECT_EQ(sample.recordsDelivered, 1u);
    EXPECT_GT(sample.internerSize, 0u);
    EXPECT_GT(sample.internerHits + sample.internerMisses, 0u);

    std::string json = monitor->healthSnapshotJson();
    EXPECT_NE(json.find("\"kind\":\"HEALTH\""), std::string::npos);
    EXPECT_NE(json.find("\"activeGroups\":1"), std::string::npos);
}

// --- the health field table ------------------------------------------

namespace {

/** A sample with every field distinct, doubles that print exactly. */
HealthSample
distinctSample()
{
    HealthSample s;
    double next = 1.0;
    for (const HealthField &field : kHealthFields) {
        if (field.count != nullptr)
            s.*field.count = static_cast<std::uint64_t>(next);
        else
            s.*field.real = next + 0.25;
        next += 1.0;
    }
    return s;
}

} // namespace

TEST(HealthFieldsTest, FromJsonInvertsToJsonFieldByField)
{
    const HealthSample s = distinctSample();
    const std::string json = s.toJson();
    EXPECT_TRUE(HealthSample::isJson(json));
    EXPECT_NE(json.find(",\"recoveries\":{\"a\":8,\"b\":9,"),
              std::string::npos)
        << json;
    const HealthSample back = HealthSample::fromJson(json);
    for (const HealthField &field : kHealthFields)
        EXPECT_EQ(field.value(back), field.value(s)) << field.key;
    EXPECT_EQ(back.toJson(), json);

    // Absent keys stay 0; a key is read only inside its own section.
    const HealthSample sparse = HealthSample::fromJson(
        "{\"kind\":\"HEALTH\",\"p99\":7,\"walAppendUs\":{\"p99\":3}}");
    EXPECT_EQ(sparse.feedP99us, 0.0);
    EXPECT_EQ(sparse.walAppendP99us, 3.0);
    EXPECT_EQ(sparse.messages, 0u);
    EXPECT_FALSE(HealthSample::isJson("{\"kind\":\"SUMMARY\"}"));
}

TEST(HealthFieldsTest, RestoreRefusesASnapshotCountTheImageCannotHold)
{
    ObsConfig config;
    config.snapshotIntervalSeconds = 1.0; // no histograms to restore
    Observability saved(config);
    HealthSample sample = distinctSample();
    saved.addSnapshot(sample);
    sample.time += 5.0;
    saved.addSnapshot(sample);
    common::BinWriter image;
    saved.saveState(image);
    ASSERT_EQ(image.bytes().size(), 2 + 8 + 2 * kHealthSampleBytes + 9);

    Observability restored(config);
    common::BinReader sound(image.bytes());
    ASSERT_TRUE(restored.restoreState(sound));
    EXPECT_EQ(restored.snapshotJsonLines(), saved.snapshotJsonLines());

    // The same image with its count raised: to one sample more than
    // it holds, and to counts that would ask reserve() for terabytes
    // or more than a vector can hold.
    for (std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 40,
                                std::uint64_t{1} << 60}) {
        std::string bytes(image.bytes());
        for (int i = 0; i < 8; ++i)
            bytes[2 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
        Observability target(config);
        common::BinReader reader(bytes);
        EXPECT_FALSE(target.restoreState(reader)) << count;
        EXPECT_FALSE(reader.ok());
    }
}

TEST(TimeoutPolicyTest, ResolutionCountersTrackFallbacks)
{
    core::TimeoutPolicy policy;
    policy.defaultTimeout = 10.0;
    policy.timeoutForCandidates({"unknown-task"});
    EXPECT_EQ(policy.resolutions, 1u);
    EXPECT_EQ(policy.defaultFallbacks, 1u);

    policy.perTask["known"] = 25.0;
    EXPECT_DOUBLE_EQ(policy.timeoutForCandidates({"known"}), 25.0);
    EXPECT_EQ(policy.resolutions, 2u);
    EXPECT_EQ(policy.defaultFallbacks, 1u);
}

// --- SUMMARY record (satellite a) ----------------------------------

TEST(SummaryJsonTest, SummaryRecordCarriesCheckerAndIngestCounters)
{
    core::CheckerStats checker;
    checker.messages = 10;
    checker.decisive = 6;
    checker.recoveredPassUnknown = 2;
    checker.accepted = 3;
    core::IngestStats ingest;
    ingest.linesSeen = 12;
    ingest.recordsDelivered = 10;
    ingest.malformedBadHeader = 2;

    std::string json = core::statsSummaryJson(checker, ingest, 42.5);
    EXPECT_NE(json.find("\"kind\":\"SUMMARY\""), std::string::npos);
    EXPECT_NE(json.find("\"time\":42.5"), std::string::npos);
    EXPECT_NE(json.find("\"messages\":10"), std::string::npos);
    EXPECT_NE(json.find("\"a\":2"), std::string::npos);
    EXPECT_NE(json.find("\"malformed\":2"), std::string::npos);
    EXPECT_NE(json.find("\"decisiveFraction\":0.75"),
              std::string::npos);
}

// --- interpolated quantiles (seer-pulse satellite) ------------------

TEST(HistogramTest, InterpolatedPercentileClampsToObservedExtremes)
{
    Histogram h(0, 2);
    for (int i = 0; i < 4; ++i)
        h.record(5.0); // all four samples share bucket [5, 6)
    // Every quantile of a constant series is the constant: the
    // interpolation clamps to the observed [min, max] rather than
    // reporting a position inside the [5, 6) bucket.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 5.0);
}

TEST(HistogramTest, InterpolatedPercentileWalksTheRankFraction)
{
    Histogram h(0, 2);
    h.record(1.0);
    h.record(1.0);
    h.record(1.0);
    h.record(10.0);
    // p50: rank 2 of 3 hits in [1, 2) -> 1 + (2/3) * 1.
    EXPECT_NEAR(h.percentileInterpolated(50.0), 1.0 + 2.0 / 3.0,
                1e-12);
    // p75: rank 3, the last hit of the bucket -> its upper bound.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(75.0), 2.0);
    // p99: rank 4 lands in [10, 20) but clamps to the observed max.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 10.0);
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesInterpolatedQuantiles)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("seer_q_us", "q", 0, 2);
    for (int i = 0; i < 4; ++i)
        h.record(5.0);
    std::string json = registry.jsonSnapshot();
    EXPECT_NE(json.find("\"p50\":5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p95\":5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\":5"), std::string::npos) << json;
}

// --- exposition escaping (seer-pulse satellite) ---------------------

TEST(MetricsRegistryTest, LabelValuesAreEscapedPerExpositionSpec)
{
    MetricsRegistry registry;
    registry
        .labeledGauge("seer_info",
                      {{"path", "C:\\temp"},
                       {"msg", "say \"hi\""},
                       {"nl", "a\nb"}},
                      "labeled")
        .set(1.0);
    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("path=\"C:\\\\temp\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("msg=\"say \\\"hi\\\"\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("nl=\"a\\nb\""), std::string::npos) << text;
}

TEST(MetricsRegistryTest, HelpTextEscapesBackslashAndNewline)
{
    MetricsRegistry registry;
    registry.gauge("seer_h", "line1\nback\\slash").set(1.0);
    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("# HELP seer_h line1\\nback\\\\slash"),
              std::string::npos)
        << text;
}

TEST(MetricsRegistryTest, LabeledGaugeFamiliesShareOneHeader)
{
    MetricsRegistry registry;
    registry.labeledGauge("seer_fam", {{"k", "a"}}, "family").set(1.0);
    registry.labeledGauge("seer_fam", {{"k", "b"}}, "family").set(2.0);
    std::string text = registry.prometheusText();
    // One HELP/TYPE header for the family, both series beneath it.
    std::size_t first = text.find("# TYPE seer_fam gauge");
    ASSERT_NE(first, std::string::npos) << text;
    EXPECT_EQ(text.find("# TYPE seer_fam gauge", first + 1),
              std::string::npos);
    EXPECT_NE(text.find("seer_fam{k=\"a\"} 1"), std::string::npos);
    EXPECT_NE(text.find("seer_fam{k=\"b\"} 2"), std::string::npos);
}

// --- build-info gauges (seer-pulse satellite) -----------------------

TEST(BuildInfoTest, ExpositionCarriesBuildIdentityGauges)
{
    ObsConfig config;
    config.metrics = true;
    Observability sinks(config);
    sinks.setBuildInfo("1.2.3-test", "cafebabe12345678");

    std::string text = sinks.prometheusText(HealthSample{});
    EXPECT_NE(
        text.find("seer_build_info{model_fingerprint="
                  "\"cafebabe12345678\",version=\"1.2.3-test\"} 1"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("seer_uptime_seconds"), std::string::npos);
}

TEST(BuildInfoTest, BuildzJsonDescribesTheBuild)
{
    ObsConfig config;
    config.metrics = true;
    Observability sinks(config);
    sinks.setBuildInfo("1.2.3-test", "cafebabe12345678");
    std::string json = obs::buildInfoJson(sinks.buildVersion(),
                                          sinks.modelFingerprint(),
                                          sinks.uptimeSeconds());
    EXPECT_NE(json.find("\"version\":\"1.2.3-test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"modelFingerprint\":\"cafebabe12345678\""),
              std::string::npos);
    EXPECT_NE(json.find("\"uptimeSeconds\":"), std::string::npos);
}

// --- interpolated quantile edges (seer-probe satellite audit) ---------

TEST(HistogramTest, InterpolatedQuantileOfEmptyHistogramIsZero)
{
    Histogram h(0, 2);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(100.0), 0.0);
}

TEST(HistogramTest, InterpolatedQuantileOfSingleSampleIsThatSample)
{
    Histogram h(0, 2);
    h.record(5.0);
    // One sample: every rank interpolates to the bucket's far edge,
    // and the [min, max] clamp pulls it back to the sample itself.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(100.0), 5.0);
}

TEST(HistogramTest, InterpolatedQuantileWithAllMassInOverflow)
{
    Histogram h(0, 1); // buckets cover [1, 10); everything beyond
    h.record(10.0);       // lands exactly on the overflow boundary
    h.record(30.0);
    ASSERT_EQ(h.overflow(), 2u);
    // The overflow region interpolates [bounds.back(), max] = [10, 30]
    // by rank: p50 is rank 1 of 2 → halfway; p99 and p100 are rank 2
    // → the observed max, never past it.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50.0), 20.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 30.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(100.0), 30.0);
}

TEST(HistogramTest, InterpolatedQuantileWithAllMassInUnderflow)
{
    Histogram h(1, 2); // buckets cover [10, 100)
    h.record(2.0);
    h.record(4.0);
    ASSERT_EQ(h.underflow(), 2u);
    // The underflow region interpolates [min, bounds.front()] =
    // [2, 10], but the clamp caps every estimate at the observed max:
    // the histogram never reports a value no sample reached.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50.0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 4.0);
    EXPECT_LE(h.percentileInterpolated(1.0), 4.0);
    EXPECT_GE(h.percentileInterpolated(1.0), 2.0);
}

TEST(HistogramTest, InterpolatedQuantileSingleOccupiedBucket)
{
    Histogram h(0, 2);
    for (int i = 0; i < 4; ++i)
        h.record(5.0); // four identical samples, one bucket [5, 6)
    // Interpolation spreads ranks across [5, 6), but min = max = 5
    // clamps them all: identical samples yield that exact value at
    // every quantile, not a bucket-width smear.
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(25.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(50.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentileInterpolated(99.0), 5.0);
}
