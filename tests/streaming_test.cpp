/**
 * @file
 * Tests for the live-monitoring path: per-node/service sinks, the
 * emission tail, the streaming session (monitoring *during* the run),
 * and JSON report rendering.
 */

#include <gtest/gtest.h>

#include "collect/node_sinks.hpp"
#include "core/monitor/report_json.hpp"
#include "eval/modeling_harness.hpp"
#include "eval/streaming_session.hpp"
#include "workload/workload_generator.hpp"

using namespace cloudseer;

namespace {

const eval::ModeledSystem &
models()
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

TEST(NodeSinks, PartitionsByNodeAndService)
{
    sim::SimConfig config;
    sim::Simulation simulation(config, 41);
    sim::UserProfile user = simulation.makeUser();
    sim::VmHandle vm = simulation.makeVm();
    simulation.submit(sim::TaskType::Boot, 0.0, user, vm);
    simulation.run();

    collect::NodeSinks sinks;
    sinks.appendStream(simulation.records());
    EXPECT_EQ(sinks.recordCount(), simulation.records().size());
    // A boot touches at least api/keystone/scheduler/conductor on the
    // controller plus compute/hypervisor on one compute node.
    EXPECT_GE(sinks.fileCount(), 6u);
    EXPECT_FALSE(sinks.file("controller", "nova-api").empty());
    EXPECT_FALSE(sinks.file(vm.computeNode, "nova-compute").empty());
    EXPECT_TRUE(sinks.file("controller", "no-such-service").empty());
}

TEST(NodeSinks, FilesAreTimeOrdered)
{
    sim::SimConfig config;
    sim::Simulation simulation(config, 43);
    sim::UserProfile user = simulation.makeUser();
    for (int i = 0; i < 4; ++i) {
        sim::VmHandle vm = simulation.makeVm();
        simulation.submit(sim::TaskType::Boot, i * 2.0, user, vm);
    }
    simulation.run();

    collect::NodeSinks sinks;
    sinks.appendStream(simulation.records());
    for (const auto &[key, records] : sinks.files()) {
        for (std::size_t i = 1; i < records.size(); ++i) {
            EXPECT_GE(records[i].timestamp, records[i - 1].timestamp)
                << key.node << "/" << key.service;
        }
    }
}

TEST(NodeSinks, MergeReassemblesTheStream)
{
    sim::SimConfig config;
    sim::Simulation simulation(config, 47);
    sim::UserProfile user = simulation.makeUser();
    for (int i = 0; i < 3; ++i) {
        sim::VmHandle vm = simulation.makeVm();
        simulation.submit(sim::TaskType::Boot, i * 1.5, user, vm);
    }
    simulation.run();

    collect::NodeSinks sinks;
    sinks.appendStream(simulation.records());
    std::vector<logging::LogRecord> merged = sinks.mergeByTimestamp();
    ASSERT_EQ(merged.size(), simulation.records().size());
    for (std::size_t i = 1; i < merged.size(); ++i)
        EXPECT_GE(merged[i].timestamp, merged[i - 1].timestamp);

    // Same multiset of record ids.
    std::set<logging::RecordId> original, reassembled;
    for (const logging::LogRecord &record : simulation.records())
        original.insert(record.id);
    for (const logging::LogRecord &record : merged)
        reassembled.insert(record.id);
    EXPECT_EQ(original, reassembled);
}

TEST(EmissionCallback, FiresInOrderDuringTheRun)
{
    sim::SimConfig config;
    config.enableNoise = false;
    sim::Simulation simulation(config, 51);
    std::vector<double> seen;
    simulation.setEmissionCallback(
        [&seen](const logging::LogRecord &record) {
            seen.push_back(record.timestamp);
        });
    sim::UserProfile user = simulation.makeUser();
    sim::VmHandle vm = simulation.makeVm();
    simulation.submit(sim::TaskType::Stop, 0.0, user, vm);
    simulation.run();
    ASSERT_EQ(seen.size(), simulation.records().size());
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_GE(seen[i], seen[i - 1]);
}

TEST(StreamingSession, MonitorsLiveAndAcceptsEverything)
{
    sim::SimConfig config;
    sim::Simulation simulation(config, 53);
    workload::WorkloadConfig wl;
    wl.users = 3;
    wl.tasksPerUser = 8;
    wl.seed = 3;
    std::size_t tasks =
        workload::WorkloadGenerator(wl).submitAll(simulation);

    core::MonitorConfig monitor_config;
    core::WorkflowMonitor monitor(monitor_config, models().catalog,
                                  models().automataCopy());

    std::size_t accepted = 0;
    std::size_t problems = 0;
    eval::StreamingSession session(
        simulation, monitor, collect::ShippingConfig{},
        [&](const core::MonitorReport &report) {
            if (report.event.kind == core::CheckEventKind::Accepted)
                ++accepted;
            else
                ++problems;
        });
    session.run();

    EXPECT_EQ(session.delivered(), simulation.records().size());
    EXPECT_EQ(accepted, tasks);
    EXPECT_EQ(problems, 0u);
}

TEST(StreamingSession, DetectsInjectedProblemsLive)
{
    sim::SimConfig config;
    sim::Simulation simulation(config, 57);
    simulation.setInjector(sim::FaultInjector(
        sim::InjectionPoint::AmqpReceiver, 1.0, 0.0, 57,
        /*max_problems=*/2));
    workload::WorkloadConfig wl;
    wl.users = 2;
    wl.tasksPerUser = 6;
    wl.seed = 5;
    workload::WorkloadGenerator(wl).submitAll(simulation);

    core::MonitorConfig monitor_config;
    monitor_config.timeoutSeconds = 10.0;
    core::WorkflowMonitor monitor(monitor_config, models().catalog,
                                  models().automataCopy());

    std::size_t problems = 0;
    eval::StreamingSession session(
        simulation, monitor, collect::ShippingConfig{},
        [&](const core::MonitorReport &report) {
            if (report.event.kind != core::CheckEventKind::Accepted)
                ++problems;
        });
    session.run();
    EXPECT_EQ(simulation.injector().records().size(), 2u);
    EXPECT_GE(problems, 2u);
}

TEST(ReportJson, EscapesStrings)
{
    auto jsonEscape = [](std::string_view raw) {
        std::string out;
        core::appendJsonEscaped(out, raw);
        return out;
    };
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
}

TEST(ReportJson, RendersReportFields)
{
    core::MonitorReport report;
    report.event.kind = core::CheckEventKind::Timeout;
    report.event.taskName = "boot";
    report.event.time = 83.214;
    report.event.records = {1, 3, 5};
    report.event.candidateTasks = {"boot"};
    report.endOfStream = true;

    logging::TemplateCatalog catalog;
    logging::TemplateId tpl =
        catalog.intern("nova-api", "Accepted \"quote\" <ip>");
    report.event.frontierTemplates = {tpl};
    report.event.expectedTemplates = {tpl};

    std::string json = core::reportToJson(report, catalog);
    EXPECT_NE(json.find("\"kind\":\"TIMEOUT\""), std::string::npos);
    EXPECT_NE(json.find("\"task\":\"boot\""), std::string::npos);
    EXPECT_NE(json.find("\"time\":83.214"), std::string::npos);
    EXPECT_NE(json.find("\"endOfStream\":true"), std::string::npos);
    EXPECT_NE(json.find("\"records\":[1,3,5]"), std::string::npos);
    EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos)
        << "template text must be escaped: " << json;
    // Single line.
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ReportJson, StreamsFromTheMonitor)
{
    // End-to-end: produce a real report and render it.
    sim::SimConfig config;
    sim::Simulation simulation(config, 61);
    simulation.setInjector(sim::FaultInjector(
        sim::InjectionPoint::AmqpSender, 1.0, 0.0, 61, 1));
    sim::UserProfile user = simulation.makeUser();
    sim::VmHandle vm = simulation.makeVm();
    simulation.submit(sim::TaskType::Boot, 0.0, user, vm);

    core::WorkflowMonitor monitor(core::MonitorConfig{},
                                  models().catalog,
                                  models().automataCopy());
    std::vector<std::string> jsons;
    eval::StreamingSession session(
        simulation, monitor, collect::ShippingConfig{},
        [&](const core::MonitorReport &report) {
            jsons.push_back(
                core::reportToJson(report, monitor.catalog()));
        });
    session.run();
    ASSERT_FALSE(jsons.empty());
    bool has_problem = false;
    for (const std::string &json : jsons)
        has_problem |= json.find("TIMEOUT") != std::string::npos ||
                       json.find("ERROR") != std::string::npos;
    EXPECT_TRUE(has_problem);
}
