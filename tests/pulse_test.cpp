/**
 * @file
 * Unit and differential tests for seer-pulse (DESIGN.md §16): the
 * rolling-window rate engine, the pending → firing → resolved alert
 * lifecycle (hysteresis band and min-hold included), the rules-file
 * parser, and the scrape endpoint end-to-end over real HTTP.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/http_server.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "obs/pulse.hpp"

using namespace cloudseer;
using namespace cloudseer::obs;

namespace {

/** A health sample with only the fields the rate engine reads. */
HealthSample
sampleAt(double t)
{
    HealthSample s;
    s.time = t;
    return s;
}

/** PulseRates carrying one signal at `value` (all others zero). */
PulseRates
ratesAt(double t, PulseSignal signal, double value)
{
    PulseRates r;
    r.time = t;
    r.value[static_cast<std::size_t>(signal)] = value;
    r.ewma[static_cast<std::size_t>(signal)] = value;
    return r;
}

} // namespace

// --- RateEngine -------------------------------------------------------

TEST(RateEngineTest, PerMessageAndPerSecondRates)
{
    RateEngine engine(60.0, 0.2);
    engine.observe(sampleAt(0.0));

    HealthSample s = sampleAt(10.0);
    s.messages = 100;
    s.recoveredPassUnknown = 5;
    s.recoveredOtherSet = 2;
    s.recoveredFalseDependency = 1;
    s.errorsReported = 1;
    s.timeoutsReported = 2;
    s.groupsShed = 20;
    s.memoryEvictions = 10;
    s.forcedReleases = 5;
    s.walAppendP99us = 42.0;
    s.feedP99us = 7.0;
    const PulseRates &r = engine.observe(s);

    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::TemplateMissRate), 0.05);
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::DivergenceRecoveryRate),
                     0.03);
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::ErrorRate), 0.01);
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::TimeoutRate), 0.02);
    // Shed and backpressure are per second, not per message.
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::ShedRate), 3.0);
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::BackpressureRate), 0.5);
    // Latency signals are levels from the newest sample.
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::WalAppendP99Us), 42.0);
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::FeedP99Us), 7.0);
    EXPECT_EQ(r.shedDelta, 20u);
    EXPECT_EQ(r.evictionDelta, 10u);
    EXPECT_EQ(r.forcedReleaseDelta, 5u);
}

TEST(RateEngineTest, WindowSlidesOldSamplesOut)
{
    RateEngine engine(10.0, 0.2);
    HealthSample a = sampleAt(0.0);
    HealthSample b = sampleAt(5.0);
    b.messages = 50;
    HealthSample c = sampleAt(10.0);
    c.messages = 100;
    HealthSample d = sampleAt(20.0);
    d.messages = 400;
    d.errorsReported = 30;
    engine.observe(a);
    engine.observe(b);
    engine.observe(c);
    const PulseRates &r = engine.observe(d);

    // Samples at t=0 and t=5 are more than windowSeconds behind the
    // newest anchor; the window keeps [10, 20] only.
    EXPECT_EQ(r.samplesInWindow, 2u);
    EXPECT_DOUBLE_EQ(r.windowSeconds, 10.0);
    // Error rate over the retained span: 30 errors / 300 messages.
    EXPECT_DOUBLE_EQ(r.valueOf(PulseSignal::ErrorRate), 0.1);
}

TEST(RateEngineTest, EwmaSeedsOnFirstObserveThenSmooths)
{
    RateEngine engine(60.0, 0.5);
    HealthSample a = sampleAt(0.0);
    engine.observe(a);

    HealthSample b = sampleAt(1.0);
    b.messages = 10;
    b.errorsReported = 10; // error rate 1.0
    const PulseRates &r1 = engine.observe(b);
    // Window [0,1]: the second observation's value is the first
    // non-trivial rate; EWMA was seeded with the first (all-zero)
    // evaluation, so it now blends toward 1.0 at alpha=0.5.
    EXPECT_DOUBLE_EQ(r1.valueOf(PulseSignal::ErrorRate), 1.0);
    EXPECT_DOUBLE_EQ(r1.ewmaOf(PulseSignal::ErrorRate), 0.5);

    HealthSample c = sampleAt(2.0);
    c.messages = 20;
    c.errorsReported = 10; // no new errors
    const PulseRates &r2 = engine.observe(c);
    EXPECT_DOUBLE_EQ(r2.valueOf(PulseSignal::ErrorRate), 0.5);
    EXPECT_DOUBLE_EQ(r2.ewmaOf(PulseSignal::ErrorRate), 0.5);
}

// --- AlertEngine lifecycle --------------------------------------------

TEST(AlertEngineTest, EveryDefaultRuleWalksTheFullLifecycle)
{
    // Each default rule is driven alone through pending → firing →
    // resolved, respecting its own pending age, hysteresis band, and
    // min-hold — the acceptance contract for the default pack.
    for (const AlertRule &rule : defaultAlertRules()) {
        SCOPED_TRACE(rule.name);
        AlertEngine engine({rule});
        double above = rule.threshold > 0.0 ? rule.threshold * 2.0
                                            : 1.0;

        double t = 100.0;
        std::vector<AlertRecord> first =
            engine.evaluate(ratesAt(t, rule.signal, above));
        ASSERT_EQ(first.size(), 1u);
        EXPECT_EQ(first[0].rule, rule.name);
        EXPECT_EQ(first[0].state,
                  rule.pendingSeconds > 0.0 ? "pending" : "firing");
        EXPECT_DOUBLE_EQ(first[0].since, t);

        if (rule.pendingSeconds > 0.0) {
            // Still pending while younger than pendingSeconds.
            EXPECT_TRUE(engine
                            .evaluate(ratesAt(
                                t + rule.pendingSeconds / 2.0,
                                rule.signal, above))
                            .empty());
            t += rule.pendingSeconds;
            std::vector<AlertRecord> fired =
                engine.evaluate(ratesAt(t, rule.signal, above));
            ASSERT_EQ(fired.size(), 1u);
            EXPECT_EQ(fired[0].state, "firing");
        }
        EXPECT_TRUE(engine.anyFiring());

        // Below the hysteresis bound but inside the min-hold: the
        // page must not flap shut.
        EXPECT_TRUE(engine
                        .evaluate(ratesAt(t + rule.holdSeconds / 2.0,
                                          rule.signal, 0.0))
                        .empty());
        EXPECT_TRUE(engine.anyFiring());

        t += rule.holdSeconds;
        std::vector<AlertRecord> resolved =
            engine.evaluate(ratesAt(t, rule.signal, 0.0));
        ASSERT_EQ(resolved.size(), 1u);
        EXPECT_EQ(resolved[0].state, "resolved");
        EXPECT_FALSE(engine.anyFiring());
    }
}

TEST(AlertEngineTest, HysteresisBandKeepsThePageOpen)
{
    AlertRule rule;
    rule.name = "err";
    rule.signal = PulseSignal::ErrorRate;
    rule.threshold = 0.10;
    rule.pendingSeconds = 0.0;
    rule.holdSeconds = 5.0;
    rule.resolveRatio = 0.5;
    AlertEngine engine({rule});

    engine.evaluate(ratesAt(0.0, rule.signal, 0.2)); // firing
    EXPECT_TRUE(engine.anyFiring());
    // 0.06 is below threshold but above 0.5 * 0.10: inside the
    // hysteresis band, long past the hold — must stay firing.
    EXPECT_TRUE(
        engine.evaluate(ratesAt(100.0, rule.signal, 0.06)).empty());
    EXPECT_TRUE(engine.anyFiring());
    // Below the band: resolves (hold long since satisfied).
    std::vector<AlertRecord> resolved =
        engine.evaluate(ratesAt(101.0, rule.signal, 0.04));
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0].state, "resolved");
}

TEST(AlertEngineTest, CancelledPendingIsSilent)
{
    AlertRule rule;
    rule.name = "miss";
    rule.signal = PulseSignal::TemplateMissRate;
    rule.threshold = 0.05;
    rule.pendingSeconds = 10.0;
    AlertEngine engine({rule});

    std::vector<AlertRecord> pending =
        engine.evaluate(ratesAt(0.0, rule.signal, 0.2));
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].state, "pending");
    // Drops below threshold before the pending age passes: no record
    // (it never paged anyone), state back to inactive.
    EXPECT_TRUE(
        engine.evaluate(ratesAt(5.0, rule.signal, 0.0)).empty());
    EXPECT_FALSE(engine.anyFiring());
    // A later excursion starts a fresh pending with a fresh since.
    std::vector<AlertRecord> again =
        engine.evaluate(ratesAt(50.0, rule.signal, 0.2));
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].state, "pending");
    EXPECT_DOUBLE_EQ(again[0].since, 50.0);
}

TEST(AlertEngineTest, EwmaRuleEvaluatesTheSmoothedSeries)
{
    AlertRule rule;
    rule.name = "err-ewma";
    rule.signal = PulseSignal::ErrorRate;
    rule.threshold = 0.10;
    rule.useEwma = true;
    AlertEngine engine({rule});

    PulseRates spike = ratesAt(0.0, rule.signal, 0.5);
    spike.ewma[static_cast<std::size_t>(rule.signal)] = 0.05;
    // Window value spikes but the EWMA stays calm: no alert.
    EXPECT_TRUE(engine.evaluate(spike).empty());
    spike.ewma[static_cast<std::size_t>(rule.signal)] = 0.2;
    EXPECT_EQ(engine.evaluate(spike).size(), 1u);
}

// --- rules parser -----------------------------------------------------

TEST(AlertRulesParserTest, ParsesACompleteRulePack)
{
    const std::string text =
        "# paging rules\n"
        "rule err signal=error_rate threshold=0.02 pending=30 "
        "hold=60 resolve=0.4\n"
        "\n"
        "rule wal signal=wal_append_p99_us threshold=500 ewma\n";
    std::vector<AlertRule> rules;
    std::string error;
    ASSERT_TRUE(parseAlertRules(text, rules, error)) << error;
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].name, "err");
    EXPECT_EQ(rules[0].signal, PulseSignal::ErrorRate);
    EXPECT_DOUBLE_EQ(rules[0].threshold, 0.02);
    EXPECT_DOUBLE_EQ(rules[0].pendingSeconds, 30.0);
    EXPECT_DOUBLE_EQ(rules[0].holdSeconds, 60.0);
    EXPECT_DOUBLE_EQ(rules[0].resolveRatio, 0.4);
    EXPECT_FALSE(rules[0].useEwma);
    EXPECT_EQ(rules[1].signal, PulseSignal::WalAppendP99Us);
    EXPECT_TRUE(rules[1].useEwma);
}

TEST(AlertRulesParserTest, RejectsUnknownSignalWithLineNumber)
{
    std::vector<AlertRule> rules;
    std::string error;
    EXPECT_FALSE(parseAlertRules(
        "rule ok signal=error_rate threshold=0.1\n"
        "rule bad signal=cpu_rate threshold=0.1\n",
        rules, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(AlertRulesParserTest, RejectsAnEmptyPack)
{
    std::vector<AlertRule> rules;
    std::string error;
    EXPECT_FALSE(parseAlertRules("# only comments\n", rules, error));
    EXPECT_FALSE(error.empty());
}

TEST(PulseSignalTest, NamesRoundTripAndClassify)
{
    for (std::size_t i = 0; i < kPulseSignalCount; ++i) {
        PulseSignal signal = static_cast<PulseSignal>(i);
        PulseSignal parsed;
        ASSERT_TRUE(
            parsePulseSignal(pulseSignalName(signal), parsed));
        EXPECT_EQ(parsed, signal);
    }
    EXPECT_TRUE(pulseSignalIsWallClock(PulseSignal::WalAppendP99Us));
    EXPECT_TRUE(pulseSignalIsWallClock(PulseSignal::FeedP99Us));
    EXPECT_FALSE(pulseSignalIsWallClock(PulseSignal::ShedRate));
    // The deterministic default pack never touches wall-clock
    // signals — that is what makes its alerts deterministic.
    for (const AlertRule &rule : defaultAlertRules())
        EXPECT_FALSE(pulseSignalIsWallClock(rule.signal))
            << rule.name;
}

// --- PulseEngine ------------------------------------------------------

TEST(PulseEngineTest, DrainsAlertLinesAndLogsToFile)
{
    std::string log_path =
        (std::filesystem::temp_directory_path() /
         "cloudseer_pulse_alerts.jsonl")
            .string();
    std::filesystem::remove(log_path);

    PulseConfig config;
    config.enabled = true;
    config.windowSeconds = 10.0;
    config.alertLogPath = log_path;
    PulseEngine engine(config);

    engine.observe(sampleAt(0.0));
    HealthSample shed = sampleAt(1.0);
    shed.messages = 10;
    shed.groupsShed = 3;
    engine.observe(shed); // shed_burn: threshold 0, fires immediately

    std::vector<std::string> lines = engine.drainAlertLines();
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("\"kind\":\"ALERT\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"rule\":\"shed_burn\""),
              std::string::npos);
    EXPECT_TRUE(engine.drainAlertLines().empty()) << "second drain";
    EXPECT_TRUE(engine.degraded());

    std::ifstream log_in(log_path);
    std::string logged;
    ASSERT_TRUE(std::getline(log_in, logged));
    EXPECT_EQ(logged, lines[0]);
    std::filesystem::remove(log_path);
}

TEST(PulseEngineTest, ControlBytesInRuleNamesAreEscaped)
{
    // The parser splits on whitespace only, so a rule name can carry
    // any other byte; ALERT lines and /alerts must still be JSON.
    PulseConfig config;
    config.enabled = true;
    config.windowSeconds = 10.0;
    std::string error;
    ASSERT_TRUE(parseAlertRules("rule a\x01" "b\"c signal=shed_rate "
                                "threshold=0\n",
                                config.rules, error))
        << error;
    PulseEngine engine(config);
    engine.observe(sampleAt(0.0));
    HealthSample shed = sampleAt(1.0);
    shed.messages = 10;
    shed.groupsShed = 3;
    engine.observe(shed);

    std::vector<std::string> lines = engine.drainAlertLines();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"rule\":\"a\\u0001b\\\"c\""),
              std::string::npos)
        << lines[0];
    EXPECT_NE(engine.alertsJson().find("\"rule\":\"a\\u0001b\\\"c\""),
              std::string::npos)
        << engine.alertsJson();
    for (const std::string &json : {lines[0], engine.alertsJson()}) {
        EXPECT_EQ(std::count_if(json.begin(), json.end(),
                                [](char c) {
                                    return static_cast<unsigned char>(c) <
                                           0x20;
                                }),
                  0)
            << json;
    }
}

TEST(PulseEngineTest, HealthzReflectsWindowDegradation)
{
    PulseConfig config;
    config.enabled = true;
    config.windowSeconds = 5.0;
    PulseEngine engine(config);

    engine.observe(sampleAt(0.0));
    EXPECT_FALSE(engine.degraded());
    EXPECT_NE(engine.healthzJson().find("\"status\":\"ok\""),
              std::string::npos);

    HealthSample bad = sampleAt(1.0);
    bad.forcedReleases = 2;
    engine.observe(bad);
    EXPECT_TRUE(engine.degraded());
    EXPECT_NE(engine.healthzJson().find("\"status\":\"degraded\""),
              std::string::npos);
}

// --- scrape endpoint over real HTTP -----------------------------------

TEST(TelemetryServerTest, ServesPublishedDocumentsOverHttp)
{
    TelemetryServer server("127.0.0.1", 0);
    ASSERT_TRUE(server.start()) << server.error();
    ASSERT_GT(server.port(), 0);

    int status = 0;
    std::string body;
    // Nothing published yet: every endpoint answers 503.
    ASSERT_TRUE(common::httpGet("127.0.0.1", server.port(),
                                "/metrics", status, body));
    EXPECT_EQ(status, 503);

    TelemetryServer::Documents docs;
    docs.metrics = "seer_up 1\n";
    docs.healthz = "{\"status\":\"ok\"}";
    docs.alerts = "{\"active\":[]}";
    docs.buildz = "{\"version\":\"test\"}";
    server.publish(std::move(docs));

    ASSERT_TRUE(common::httpGet("127.0.0.1", server.port(),
                                "/metrics", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "seer_up 1\n");
    ASSERT_TRUE(common::httpGet("127.0.0.1", server.port(),
                                "/healthz", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "{\"status\":\"ok\"}");
    ASSERT_TRUE(common::httpGet("127.0.0.1", server.port(),
                                "/nowhere", status, body));
    EXPECT_EQ(status, 404);
    server.stop();
    EXPECT_FALSE(server.running());
}

// --- monitor integration ----------------------------------------------

namespace {

/** Ping-pong monitor fixture with the pulse plane armed. */
class PulseMonitorTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();
    logging::RecordId nextRecord = 1;

    std::vector<core::TaskAutomaton>
    pingPong()
    {
        logging::TemplateId ping =
            catalog->intern("svc-a", "ping <uuid>");
        logging::TemplateId pong =
            catalog->intern("svc-b", "pong <uuid>");
        std::vector<core::TaskAutomaton> automata;
        automata.emplace_back(
            "ping-pong",
            std::vector<core::EventNode>{{ping, 0}, {pong, 0}},
            std::vector<core::DependencyEdge>{{0, 1, true}});
        return automata;
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
        char buf[64];
        std::snprintf(buf, sizeof buf,
                      "%08x-1111-1111-1111-111111111111",
                      static_cast<unsigned>(which));
        return buf;
    }
};

} // namespace

TEST_F(PulseMonitorTest, PulseOffByDefaultAndReportsIdentically)
{
    core::MonitorConfig bare_config;
    core::WorkflowMonitor bare(bare_config, catalog, pingPong());
    EXPECT_FALSE(bare.pulseEnabled());
    EXPECT_EQ(bare.pulse(), nullptr);
    EXPECT_EQ(bare.pulsePort(), -1);
    EXPECT_TRUE(bare.drainAlertJson().empty());
    EXPECT_EQ(bare.healthzJson(), "");

    core::MonitorConfig pulse_config;
    pulse_config.pulse.enabled = true;
    pulse_config.pulse.windowSeconds = 6.0;
    core::WorkflowMonitor pulsed(pulse_config, catalog, pingPong());
    EXPECT_TRUE(pulsed.pulseEnabled());

    // The identical stream through both monitors: reports and
    // checker counters must not see the pulse plane at all.
    auto drive = [&](core::WorkflowMonitor &monitor) {
        std::vector<std::string> kinds;
        nextRecord = 1;
        for (int i = 0; i < 40; ++i) {
            double t = 0.5 * i;
            auto r1 = monitor.feed(
                record("svc-a", "ping " + uuid(i), t));
            auto r2 = monitor.feed(
                record("svc-b", "pong " + uuid(i), t + 0.1));
            for (const auto &rep : r1)
                kinds.push_back(rep.summary(*catalog));
            for (const auto &rep : r2)
                kinds.push_back(rep.summary(*catalog));
        }
        for (const auto &rep : monitor.finish())
            kinds.push_back(rep.summary(*catalog));
        return kinds;
    };
    EXPECT_EQ(drive(bare), drive(pulsed));
    EXPECT_EQ(bare.stats().accepted, pulsed.stats().accepted);
}

TEST_F(PulseMonitorTest, ShedBurstFlipsHealthzAndEmitsAlerts)
{
    core::MonitorConfig config;
    config.timeoutSeconds = 100.0;
    config.ingest.maxActiveGroups = 4;
    config.pulse.enabled = true;
    config.pulse.windowSeconds = 6.0; // snapshots every 1 s of clock
    core::WorkflowMonitor monitor(config, catalog, pingPong());

    std::vector<std::string> alerts;
    // 30 half-open groups over 15 s of message clock: the cap sheds
    // most of them, snapshots fire each second, shed_burn pages.
    for (int i = 0; i < 30; ++i) {
        monitor.feed(record("svc-a", "ping " + uuid(i), 0.5 * i));
        for (std::string &line : monitor.drainAlertJson())
            alerts.push_back(std::move(line));
    }
    ASSERT_FALSE(alerts.empty());
    EXPECT_NE(alerts[0].find("\"rule\":\"shed_burn\""),
              std::string::npos);
    EXPECT_NE(alerts[0].find("\"state\":\"firing\""),
              std::string::npos);
    EXPECT_NE(monitor.healthzJson().find("\"status\":\"degraded\""),
              std::string::npos);
    EXPECT_NE(monitor.buildzJson().find("\"modelFingerprint\""),
              std::string::npos);
}

TEST_F(PulseMonitorTest, ScrapeEndpointServesLiveMonitorState)
{
    core::MonitorConfig config;
    config.pulse.enabled = true;
    config.pulse.windowSeconds = 6.0;
    config.pulse.httpPort = 0; // ephemeral
    config.pulse.stageSampleEvery = 1;
    config.ingest.maxActiveGroups = 4; // the shed burst's target
    core::WorkflowMonitor monitor(config, catalog, pingPong());
    int port = monitor.pulsePort();
    ASSERT_GT(port, 0);

    for (int i = 0; i < 10; ++i) {
        monitor.feed(record("svc-a", "ping " + uuid(i), 0.5 * i));
        monitor.feed(record("svc-b", "pong " + uuid(i), 0.5 * i + 0.1));
    }
    monitor.publishPulse();

    int status = 0;
    std::string body;
    ASSERT_TRUE(common::httpGet("127.0.0.1",
                                static_cast<std::uint16_t>(port),
                                "/metrics", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("seer_accepted_total 10"), std::string::npos)
        << body;
    EXPECT_NE(body.find("seer_build_info{"), std::string::npos);
    // The sampled stage timers made it into the exposition.
    EXPECT_NE(body.find("seer_stage_check_us_count"),
              std::string::npos);

    ASSERT_TRUE(common::httpGet("127.0.0.1",
                                static_cast<std::uint16_t>(port),
                                "/healthz", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);

    ASSERT_TRUE(common::httpGet("127.0.0.1",
                                static_cast<std::uint16_t>(port),
                                "/alerts", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"active\":["), std::string::npos);

    ASSERT_TRUE(common::httpGet("127.0.0.1",
                                static_cast<std::uint16_t>(port),
                                "/buildz", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"modelFingerprint\""), std::string::npos);

    // A group-cap shed burst: 30 half-open groups over 15 s of message
    // clock. The scrape plane must report it without a restart.
    for (int i = 0; i < 30; ++i)
        monitor.feed(
            record("svc-a", "ping " + uuid(100 + i), 5.0 + 0.5 * i));
    monitor.publishPulse();

    ASSERT_TRUE(common::httpGet("127.0.0.1",
                                static_cast<std::uint16_t>(port),
                                "/healthz", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos)
        << body;

    ASSERT_TRUE(common::httpGet("127.0.0.1",
                                static_cast<std::uint16_t>(port),
                                "/alerts", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"rule\":\"shed_burn\""), std::string::npos)
        << body;
}

