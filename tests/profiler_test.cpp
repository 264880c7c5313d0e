/**
 * @file
 * Tests for seer-probe (DESIGN.md §17): the null-object contract of a
 * disabled profiler (no signal handler, no timer, reports
 * bit-identical with profiling on or off), stage-tagged sampling of a
 * busy loop, the attribution floor over WorkflowMonitor::feedLine, the
 * folded/JSON serialisations and their round-trip, the SIGPROF
 * disposition restore on stop, and the live /profilez endpoint on a
 * pulse-enabled monitor.
 *
 * The sampling cases use generous CPU-burn windows and assert
 * presence/dominance rather than exact counts — SIGPROF ticks on
 * process CPU time, and a loaded CI box delivers them unevenly.
 */

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/http_server.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/log_codec.hpp"
#include "logging/template_catalog.hpp"
#include "obs/profiler.hpp"

using namespace cloudseer;
using namespace cloudseer::obs;

/**
 * A leaf busy loop: it calls nothing, so a sample that interrupts it
 * must name it as the innermost frame. External linkage (not in the
 * anonymous namespace) so that the exported symbol table, which the
 * profiler's dladdr reads, names it.
 */
__attribute__((noinline)) std::uint64_t
profilerTestLeafSpin(std::uint64_t rounds)
{
    std::uint64_t x = rounds;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        asm volatile("" : "+r"(x));
    }
    return x;
}

/** Runs the leaf for about `seconds` of process CPU time. */
__attribute__((noinline)) std::uint64_t
profilerTestCallerOfLeaf(double seconds)
{
    auto spent = [] {
        timespec ts = {};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    };
    double start = spent();
    std::uint64_t sink = 0;
    while (spent() - start < seconds)
        sink ^= profilerTestLeafSpin(1u << 18);
    return sink;
}

namespace {

/** Current SIGPROF disposition, for pinning install/restore. */
struct sigaction
sigprofDisposition()
{
    struct sigaction current = {};
    sigaction(SIGPROF, nullptr, &current);
    return current;
}

/** Burn roughly `seconds` of CPU time (not wall clock) so SIGPROF —
 *  which ticks on process CPU — has something to hit. */
void
burnCpu(double seconds)
{
    auto spent = [] {
        timespec ts = {};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    };
    double start = spent();
    volatile std::uint64_t sink = 0;
    while (spent() - start < seconds)
        for (int i = 0; i < 10000; ++i)
            sink = sink * 1664525u + 1013904223u;
}

/** The ping → pong task every monitor case here runs. */
std::vector<core::TaskAutomaton>
pingPong(logging::TemplateCatalog &catalog)
{
    logging::TemplateId ping = catalog.intern("svc-a", "ping <uuid>");
    logging::TemplateId pong = catalog.intern("svc-b", "pong <uuid>");
    std::vector<core::TaskAutomaton> automata;
    automata.emplace_back(
        "ping-pong",
        std::vector<core::EventNode>{{ping, 0}, {pong, 0}},
        std::vector<core::DependencyEdge>{{0, 1, true}});
    return automata;
}

// --- stage scopes ------------------------------------------------------

TEST(StageScopeTest, NestsInnermostWinsAndRestores)
{
    EXPECT_EQ(currentProfStage(), ProfStage::None);
    {
        StageScope outer(ProfStage::Sink);
        EXPECT_EQ(currentProfStage(), ProfStage::Sink);
        {
            StageScope inner(ProfStage::Check);
            EXPECT_EQ(currentProfStage(), ProfStage::Check);
        }
        EXPECT_EQ(currentProfStage(), ProfStage::Sink);
    }
    EXPECT_EQ(currentProfStage(), ProfStage::None);
}

TEST(StageScopeTest, StageNamesAreStable)
{
    EXPECT_STREQ(profStageName(ProfStage::None), "untagged");
    EXPECT_STREQ(profStageName(ProfStage::Sink), "sink");
    EXPECT_STREQ(profStageName(ProfStage::Parse), "parse");
    EXPECT_STREQ(profStageName(ProfStage::Route), "route");
    EXPECT_STREQ(profStageName(ProfStage::Check), "check");
    EXPECT_STREQ(profStageName(ProfStage::Verdict), "verdict");
    EXPECT_STREQ(profStageName(ProfStage::WalAppend), "wal_append");
}

// --- null-object contract ---------------------------------------------

TEST(ProfilerTest, ConstructionInstallsNothing)
{
    struct sigaction before = sigprofDisposition();
    {
        ProfilerConfig config;
        config.enabled = true;
        Profiler profiler(config);
        // Construction allocates the ring only; the disposition must
        // be untouched until start().
        struct sigaction during = sigprofDisposition();
        EXPECT_EQ(during.sa_handler, before.sa_handler);
        EXPECT_FALSE(profiler.running());
    }
    struct sigaction after = sigprofDisposition();
    EXPECT_EQ(after.sa_handler, before.sa_handler);
}

TEST(ProfilerTest, StartInstallsAndStopRestoresDisposition)
{
    struct sigaction before = sigprofDisposition();
    ASSERT_EQ(before.sa_handler, SIG_DFL)
        << "another test left a SIGPROF handler installed";

    ProfilerConfig config;
    config.enabled = true;
    config.hz = 97;
    Profiler profiler(config);
    ASSERT_TRUE(profiler.start());
    EXPECT_TRUE(profiler.running());
    struct sigaction during = sigprofDisposition();
    EXPECT_NE(during.sa_handler, SIG_DFL);

    // A second concurrent profiler must fail cleanly: the SIGPROF
    // disposition is process-global.
    Profiler second(config);
    EXPECT_FALSE(second.start());

    profiler.stop();
    EXPECT_FALSE(profiler.running());
    struct sigaction after = sigprofDisposition();
    EXPECT_EQ(after.sa_handler, SIG_DFL);

    // stop() is idempotent, and the slot is free again.
    profiler.stop();
    ASSERT_TRUE(second.start());
    second.stop();
    EXPECT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
}

TEST(ProfilerTest, DisabledMonitorInstallsNoHandler)
{
    ASSERT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    core::MonitorConfig config; // profiler.enabled defaults to false
    core::WorkflowMonitor monitor(config, catalog,
                                  pingPong(*catalog));
    EXPECT_FALSE(monitor.profilerEnabled());
    EXPECT_EQ(monitor.profiler(), nullptr);

    logging::LogRecord record;
    record.id = 1;
    record.timestamp = 1.0;
    record.node = "n1";
    record.service = "svc-a";
    record.level = logging::LogLevel::Info;
    record.body = "ping 11111111-1111-1111-1111-111111111111";
    monitor.feed(record);
    // Still a null object after traffic: nothing installed.
    EXPECT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
}

// --- on/off differential ----------------------------------------------

/** Run the ping-pong chain plus a divergence through a monitor and
 *  flatten every report to its summary line. */
std::vector<std::string>
reportTrace(bool profiler_on)
{
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    core::MonitorConfig config;
    config.timeoutSeconds = 5.0;
    config.profiler.enabled = profiler_on;
    config.profiler.hz = 997; // sample as hard as we allow
    core::WorkflowMonitor monitor(config, catalog,
                                  pingPong(*catalog));

    std::vector<std::string> trace;
    auto absorb = [&](const std::vector<core::MonitorReport> &batch) {
        for (const core::MonitorReport &report : batch)
            trace.push_back(report.summary(*catalog));
    };
    logging::RecordId next = 1;
    auto feed = [&](const std::string &service,
                    const std::string &body, double t) {
        logging::LogRecord record;
        record.id = next++;
        record.timestamp = t;
        record.node = "n1";
        record.service = service;
        record.level = logging::LogLevel::Info;
        record.body = body;
        absorb(monitor.feed(record));
    };
    // Interleaved completions, one out-of-order pong, one dangling
    // ping that times out at finish() — enough shape to notice any
    // perturbation.
    for (int task = 0; task < 50; ++task) {
        char uuid[64];
        std::snprintf(uuid, sizeof uuid,
                      "%08d-1111-1111-1111-111111111111", task);
        double t = 1.0 + 0.01 * task;
        feed("svc-a", std::string("ping ") + uuid, t);
        if (task % 7 != 6)
            feed("svc-b", std::string("pong ") + uuid, t + 0.001);
        if (profiler_on && task % 16 == 0)
            burnCpu(0.002); // give the timer something to interrupt
    }
    absorb(monitor.finish());
    return trace;
}

TEST(ProfilerTest, ReportsBitIdenticalWithProfilingOnOrOff)
{
    ASSERT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
    std::vector<std::string> off = reportTrace(false);
    std::vector<std::string> on = reportTrace(true);
    EXPECT_FALSE(off.empty());
    EXPECT_EQ(off, on);
    // And the monitor restored the disposition on destruction.
    EXPECT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
}

// --- sampling and serialisation ---------------------------------------

TEST(ProfilerTest, SamplesBusyLoopUnderItsStageTag)
{
    ProfilerConfig config;
    config.enabled = true;
    config.hz = 997;
    Profiler profiler(config);
    ASSERT_TRUE(profiler.start());
    {
        StageScope scope(ProfStage::Check);
        burnCpu(0.3);
    }
    profiler.stop();

    Profile profile = profiler.collect();
    ASSERT_GT(profile.samples, 0u)
        << "no SIGPROF ticks landed in 0.3s of CPU burn";
    EXPECT_EQ(profile.samples, profiler.sampleCount());
    EXPECT_EQ(profile.hz, 997);
    EXPECT_GT(profile.durationSeconds, 0.0);
    auto check_idx =
        static_cast<std::size_t>(ProfStage::Check);
    EXPECT_GT(profile.stageSamples[check_idx], 0u);
    // The burn loop dominates this process's CPU while armed, so the
    // check lane must dominate the profile.
    EXPECT_GT(static_cast<double>(profile.stageSamples[check_idx]),
              0.5 * static_cast<double>(profile.samples));
    EXPECT_GT(profile.taggedFraction(), 0.5);
    EXPECT_FALSE(profile.stacks.empty());

    // Folded output: every line is "frames... count" with the stage
    // lane as the root frame.
    std::string folded = profile.toFolded();
    ASSERT_FALSE(folded.empty());
    EXPECT_NE(folded.find("[check];"), std::string::npos);
    std::string first = folded.substr(0, folded.find('\n'));
    EXPECT_NE(first.find_last_of(' '), std::string::npos);

    // JSON round-trip: parse back what toJson wrote and compare the
    // aggregate fields and the stack multiset.
    Profile parsed;
    ASSERT_TRUE(parseProfileJson(profile.toJson(), parsed));
    EXPECT_EQ(parsed.hz, profile.hz);
    EXPECT_EQ(parsed.samples, profile.samples);
    EXPECT_EQ(parsed.dropped, profile.dropped);
    EXPECT_EQ(parsed.stageSamples, profile.stageSamples);
    EXPECT_EQ(parsed.allocTracked, profile.allocTracked);
    ASSERT_EQ(parsed.stacks.size(), profile.stacks.size());
    for (std::size_t i = 0; i < parsed.stacks.size(); ++i) {
        EXPECT_EQ(parsed.stacks[i].stage, profile.stacks[i].stage);
        EXPECT_EQ(parsed.stacks[i].count, profile.stacks[i].count);
        EXPECT_EQ(parsed.stacks[i].frames, profile.stacks[i].frames);
    }
    EXPECT_NEAR(parsed.taggedFraction(), profile.taggedFraction(),
                1e-9);
}

TEST(ProfilerTest, NamesTheInterruptedLeafFunction)
{
    // The handler reads the interrupted PC from its ucontext, so the
    // function that was running is the innermost frame. A walk from
    // the handler's own frame starts at the interrupted function's
    // caller (its caller's caller for a frameless leaf like this one)
    // and would miss the leaf in every sample.
    ProfilerConfig config;
    config.enabled = true;
    config.hz = 997;
    Profiler profiler(config);
    ASSERT_TRUE(profiler.start());
    std::uint64_t sink = 0;
    {
        StageScope scope(ProfStage::Check);
        sink = profilerTestCallerOfLeaf(0.3);
    }
    profiler.stop();
    EXPECT_NE(sink, 1u); // keep the loop's result alive

    Profile profile = profiler.collect();
    std::uint64_t check = 0;
    std::uint64_t leaf = 0;
    for (const ProfileStack &stack : profile.stacks) {
        if (stack.stage != ProfStage::Check)
            continue;
        check += stack.count;
        if (!stack.frames.empty() &&
            stack.frames.back().find("profilerTestLeafSpin") !=
                std::string::npos)
            leaf += stack.count;
    }
    std::printf("leaf innermost in %llu of %llu check samples\n",
                static_cast<unsigned long long>(leaf),
                static_cast<unsigned long long>(check));
    ASSERT_GT(check, 0u) << "no SIGPROF ticks landed in the leaf loop";
    EXPECT_GE(2 * leaf, check) << profile.toFolded();
}

TEST(ProfilerTest, RecordsTheRateItDelivered)
{
    // The timer ticks on process CPU time, so the delivered rate is
    // the samples over the CPU seconds the profiler was armed. It can
    // fall short of the configured rate, never exceed it by more than
    // the tick in flight at either end.
    ProfilerConfig config;
    config.enabled = true;
    config.hz = 997;
    Profiler profiler(config);
    ASSERT_TRUE(profiler.start());
    burnCpu(0.3);
    Profile live = profiler.collect(); // while running
    burnCpu(0.1);
    profiler.stop();

    Profile profile = profiler.collect();
    ASSERT_GT(profile.samples, 0u);
    EXPECT_EQ(profile.hz, 997);
    EXPECT_GE(profile.cpuSeconds, 0.3);
    EXPECT_GT(profile.cpuSeconds, live.cpuSeconds);
    EXPECT_DOUBLE_EQ(profile.deliveredHz,
                     static_cast<double>(profile.samples +
                                         profile.dropped) /
                         profile.cpuSeconds);
    EXPECT_GT(profile.deliveredHz, 0.0);
    EXPECT_LE(profile.deliveredHz, 1.05 * profile.hz);
    std::printf("delivered %.1f Hz of %d Hz configured over %.3f CPU s\n",
                profile.deliveredHz, profile.hz, profile.cpuSeconds);

    // Both figures survive the JSON round trip (six decimals).
    Profile parsed;
    ASSERT_TRUE(parseProfileJson(profile.toJson(), parsed));
    EXPECT_NEAR(parsed.deliveredHz, profile.deliveredHz, 1e-6);
    EXPECT_NEAR(parsed.cpuSeconds, profile.cpuSeconds, 1e-6);
}

TEST(ProfilerTest, ParseRejectsNonProfileDocuments)
{
    Profile out;
    out.hz = 42;
    EXPECT_FALSE(parseProfileJson("", out));
    EXPECT_FALSE(parseProfileJson("{\"kind\": \"HEALTH\"}", out));
    EXPECT_FALSE(parseProfileJson("not json at all", out));
    EXPECT_EQ(out.hz, 42); // untouched on failure
}

// --- attribution floor on the wire path -------------------------------

TEST(ProfilerTest, FeedLineSamplesLandInTaggedStages)
{
    // Almost all of feedLine's CPU must sample under a stage tag; a
    // lower share means the stage markers drifted off the hot path.
    // Only stage tags are asserted, never stack frames, so this case
    // holds under TSan too.
    ASSERT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
    auto catalog = std::make_shared<logging::TemplateCatalog>();

    // Pre-encoded wire lines, so no encoding runs while sampling:
    // 10000 ping-pong tasks, each pong trailing its ping by three.
    std::vector<std::string> lines;
    auto line = [&](const std::string &service, const std::string &body,
                    double t) {
        logging::LogRecord record;
        record.timestamp = t;
        record.node = "n1";
        record.service = service;
        record.level = logging::LogLevel::Info;
        record.body = body;
        lines.push_back(logging::encodeLogLine(record));
    };
    auto uuid = [](int task) {
        char buf[64];
        std::snprintf(buf, sizeof buf,
                      "%08d-2222-2222-2222-222222222222", task);
        return std::string(buf);
    };
    constexpr int kTasks = 10000;
    constexpr int kLag = 3;
    for (int task = 0; task < kTasks + kLag; ++task) {
        double t = 1.0 + 0.001 * task;
        if (task < kTasks)
            line("svc-a", "ping " + uuid(task), t);
        if (task >= kLag)
            line("svc-b", "pong " + uuid(task - kLag), t + 0.0005);
    }

    ProfilerConfig config;
    config.enabled = true;
    config.hz = 499;
    config.maxSamples = 1 << 16;
    Profiler profiler(config);
    ASSERT_TRUE(profiler.start());
    // Poll the sample count rather than estimating passes from the
    // nominal rate: expired timer ticks coalesce into one SIGPROF.
    constexpr std::uint64_t kMinSamples = 300;
    int passes = 0;
    while (profiler.sampleCount() < kMinSamples && passes < 200) {
        core::WorkflowMonitor monitor(core::MonitorConfig{}, catalog,
                                      pingPong(*catalog));
        for (const std::string &wire : lines)
            monitor.feedLine(wire);
        EXPECT_EQ(monitor.stats().accepted,
                  static_cast<std::uint64_t>(kTasks));
        ++passes;
    }
    profiler.stop();
    EXPECT_EQ(sigprofDisposition().sa_handler, SIG_DFL);

    Profile profile = profiler.collect();
    std::printf("attribution: %llu samples over %d passes, %.1f%% "
                "tagged\n",
                static_cast<unsigned long long>(profile.samples), passes,
                100.0 * profile.taggedFraction());
    ASSERT_GE(profile.samples, kMinSamples)
        << "only " << profile.samples << " samples in " << passes
        << " passes";
    EXPECT_GE(profile.taggedFraction(), 0.9)
        << profile.samples << " samples over " << passes << " passes";

    Profile parsed;
    ASSERT_TRUE(parseProfileJson(profile.toJson(), parsed));
    EXPECT_EQ(parsed.hz, 499);
    EXPECT_EQ(parsed.samples, profile.samples);
    EXPECT_EQ(parsed.dropped, profile.dropped);
    EXPECT_EQ(parsed.stageSamples, profile.stageSamples);
    EXPECT_NEAR(parsed.taggedFraction(), profile.taggedFraction(), 1e-9);
}

TEST(ProfilerTest, AllocTrackingCompiledOutByDefault)
{
    // -DCLOUDSEER_PROFILE_ALLOC=ON flips this (and the JSON's alloc
    // block); the default build must not carry operator-new hooks.
    EXPECT_FALSE(Profiler::allocTrackingCompiledIn());
    ProfilerConfig config;
    config.enabled = true;
    Profiler profiler(config);
    EXPECT_FALSE(profiler.collect().allocTracked);
}

// --- /profilez over real HTTP -----------------------------------------

TEST(ProfilerTest, ProfilezServesLiveProfile)
{
    ASSERT_EQ(sigprofDisposition().sa_handler, SIG_DFL);
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    core::MonitorConfig config;
    config.pulse.enabled = true;
    config.pulse.httpPort = 0; // ephemeral
    core::WorkflowMonitor monitor(config, catalog,
                                  pingPong(*catalog));
    ASSERT_GT(monitor.pulsePort(), 0);

    // No persistent profiler configured: /profilez spins up a
    // transient one for the window, then restores the disposition.
    int status = 0;
    std::string body;
    ASSERT_TRUE(common::httpGet(
        "127.0.0.1", static_cast<std::uint16_t>(monitor.pulsePort()),
        "/profilez?seconds=0.2", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"kind\": \"PROFILE\""), std::string::npos);
    Profile profile;
    EXPECT_TRUE(parseProfileJson(body, profile));
    EXPECT_EQ(sigprofDisposition().sa_handler, SIG_DFL);

    // Unparseable and non-positive windows are client errors.
    ASSERT_TRUE(common::httpGet(
        "127.0.0.1", static_cast<std::uint16_t>(monitor.pulsePort()),
        "/profilez?seconds=banana", status, body));
    EXPECT_EQ(status, 400);
    ASSERT_TRUE(common::httpGet(
        "127.0.0.1", static_cast<std::uint16_t>(monitor.pulsePort()),
        "/profilez?seconds=-1", status, body));
    EXPECT_EQ(status, 400);
}

} // namespace
