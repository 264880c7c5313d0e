/**
 * @file
 * Pins the checker's observable behaviour over three seeded streams, so
 * that a change to how group and identifier-set state is stored cannot
 * change a verdict, a counter, a size estimate or a checkpoint byte.
 *
 * The expected values below were computed by this same file before the
 * group state moved into per-group instance arenas and recycled map
 * nodes (DESIGN.md §19). Each stream records:
 *   - the FNV-1a digest of its report stream (reports rendered as JSON);
 *   - every CheckerStats counter;
 *   - approxRetainedBytes() sampled every 64 messages (checker-level
 *     streams), folded into one digest;
 *   - the digest of the saveState bytes at the stream's midpoint;
 *   - the report digest of a fresh checker (or monitor) restored from
 *     that midpoint image and fed the rest of the stream.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "collect/stream_merger.hpp"
#include "collect/stream_perturber.hpp"
#include "common/binio.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/log_codec.hpp"
#include "logging/variable_extractor.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_generator.hpp"

namespace {

using namespace cloudseer;

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

std::vector<const core::TaskAutomaton *>
automatonPointers()
{
    std::vector<const core::TaskAutomaton *> out;
    for (const core::TaskAutomaton &automaton : models().automata)
        out.push_back(&automaton);
    return out;
}

/** FNV-1a over a byte string, continuing from `hash`. */
std::uint64_t
fnv1a(std::string_view bytes,
      std::uint64_t hash = 1469598103934665603ULL)
{
    for (char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
mixValue(std::uint64_t hash, std::uint64_t value)
{
    return fnv1a(std::string_view(reinterpret_cast<const char *>(&value),
                                  sizeof(value)),
                 hash);
}

/**
 * Mixes one report into a running report digest: its JSON line plus
 * what the line leaves out or rounds (group id, exact times, the
 * identifier texts).
 */
std::uint64_t
mixReport(std::uint64_t hash, const core::MonitorReport &report)
{
    hash = fnv1a(core::reportToJson(report, *models().catalog) + "\n",
                 hash);
    const core::CheckEvent &event = report.event;
    hash = mixValue(hash, event.group);
    hash = mixValue(hash, std::bit_cast<std::uint64_t>(event.time));
    hash = mixValue(hash, std::bit_cast<std::uint64_t>(event.startTime));
    for (logging::IdToken token : event.identifiers)
        hash = fnv1a(logging::IdentifierInterner::process().text(token) +
                         "\x1f",
                     hash);
    return hash;
}

std::uint64_t
mixEvents(std::uint64_t hash, const std::vector<core::CheckEvent> &events)
{
    for (const core::CheckEvent &event : events) {
        core::MonitorReport report;
        report.event = event;
        hash = mixReport(hash, report);
    }
    return hash;
}

/** Every CheckerStats counter, in declaration order. */
std::vector<std::uint64_t>
statsFields(const core::CheckerStats &s)
{
    return {s.messages,
            s.decisive,
            s.ambiguous,
            s.recoveredPassUnknown,
            s.recoveredNewSequence,
            s.recoveredOtherSet,
            s.recoveredFalseDependency,
            s.unmatched,
            s.errorsReported,
            s.timeoutsReported,
            s.timeoutsSuppressed,
            s.latencyAnomalies,
            s.groupsShed,
            s.accepted,
            s.consumeAttempts};
}

/** What one stream pins. */
struct Pin
{
    std::uint64_t reports = 0;
    std::vector<std::uint64_t> stats;
    std::uint64_t retained = 0;
    std::uint64_t midState = 0;
    std::uint64_t resumed = 0;
};

void
printPin(const char *name, const Pin &pin)
{
    std::printf("%s: reports 0x%016llxULL retained 0x%016llxULL "
                "midState 0x%016llxULL resumed 0x%016llxULL\n  stats {",
                name, static_cast<unsigned long long>(pin.reports),
                static_cast<unsigned long long>(pin.retained),
                static_cast<unsigned long long>(pin.midState),
                static_cast<unsigned long long>(pin.resumed));
    for (std::size_t i = 0; i < pin.stats.size(); ++i)
        std::printf("%s%llu", i == 0 ? "" : ", ",
                    static_cast<unsigned long long>(pin.stats[i]));
    std::printf("}\n");
}

void
expectPin(const Pin &actual, const Pin &expected)
{
    EXPECT_EQ(actual.reports, expected.reports);
    EXPECT_EQ(actual.stats, expected.stats);
    EXPECT_EQ(actual.retained, expected.retained);
    EXPECT_EQ(actual.midState, expected.midState);
    EXPECT_EQ(actual.resumed, expected.resumed);
}

/** Records of a seeded simulator run, in collector order. */
std::vector<logging::LogRecord>
streamRecords(std::uint64_t seed, int users, bool single_uid,
              int tasks_per_user, const collect::ShippingConfig &shipping)
{
    sim::Simulation simulation(sim::SimConfig{}, seed);
    workload::WorkloadConfig traffic;
    traffic.users = users;
    traffic.singleUid = single_uid;
    traffic.tasksPerUser = tasks_per_user;
    traffic.seed = seed;
    workload::WorkloadGenerator(traffic).submitAll(simulation);
    simulation.run();
    return collect::mergeStream(simulation.records(), shipping);
}

/** The checker's input for each record, built as the monitor does. */
std::vector<core::CheckMessage>
checkMessages(const std::vector<logging::LogRecord> &records)
{
    logging::VariableExtractor extractor;
    std::vector<core::CheckMessage> out;
    out.reserve(records.size());
    for (const logging::LogRecord &record : records) {
        logging::ParsedBody parsed = extractor.parse(record.body);
        core::CheckMessage message;
        message.tpl =
            models().catalog->find(record.service, parsed.templateText);
        for (const logging::Variable &var : parsed.variables) {
            if (var.kind == logging::VariableKind::Number)
                continue;
            message.identifiers.push_back(
                logging::IdentifierInterner::process().intern(var.text));
        }
        message.level = record.level;
        message.record = record.id;
        message.time = record.timestamp;
        out.push_back(std::move(message));
    }
    return out;
}

/**
 * Feeds messages to a checker with a timeout sweep every 64 messages,
 * from `begin` to `end`, folding reports into `hash`. Samples
 * approxRetainedBytes() after each sweep when `retained` is non-null.
 */
std::uint64_t
runChecker(core::InterleavedChecker &checker,
           const std::vector<core::CheckMessage> &messages,
           std::size_t begin, std::size_t end, double timeout,
           std::uint64_t hash, std::uint64_t *retained)
{
    for (std::size_t i = begin; i < end; ++i) {
        hash = mixEvents(hash, checker.feed(messages[i]));
        if ((i + 1) % 64 == 0) {
            hash = mixEvents(
                hash, checker.sweepTimeouts(messages[i].time, timeout));
            if (retained != nullptr)
                *retained =
                    mixValue(*retained, checker.approxRetainedBytes());
        }
    }
    return hash;
}

/** A checker-level pin: run, checkpoint at the midpoint, resume. */
Pin
pinChecker(const std::vector<core::CheckMessage> &messages,
           const core::CheckerConfig &config, double timeout)
{
    Pin pin;
    const std::size_t mid = messages.size() / 2;
    std::uint64_t retained = 1469598103934665603ULL;

    core::InterleavedChecker checker(config, automatonPointers());
    std::uint64_t hash = runChecker(checker, messages, 0, mid, timeout,
                                    1469598103934665603ULL, &retained);
    common::BinWriter image;
    checker.saveState(image);
    pin.midState = fnv1a(image.bytes());
    const std::uint64_t atMid = hash;

    hash = runChecker(checker, messages, mid, messages.size(), timeout,
                      hash, &retained);
    hash = mixEvents(hash, checker.finish(messages.back().time + 1.0));
    pin.reports = hash;
    pin.stats = statsFields(checker.stats());
    pin.retained = retained;

    core::InterleavedChecker restored(config, automatonPointers());
    common::BinReader reader(image.bytes());
    EXPECT_TRUE(restored.restoreState(reader));
    std::uint64_t resumed = runChecker(restored, messages, mid,
                                       messages.size(), timeout, atMid,
                                       nullptr);
    pin.resumed =
        mixEvents(resumed, restored.finish(messages.back().time + 1.0));
    return pin;
}

/** Table 3 group 6: four users behind one UID, healthy transport. */
std::vector<core::CheckMessage>
table6Messages()
{
    collect::ShippingConfig shipping;
    shipping.seed = 1;
    return checkMessages(streamRecords(1, 4, true, 24, shipping));
}

/**
 * Sixteen users behind one UID with a slow shipping tail, so late
 * records arrive behind their successors (recovery d repairs). Every
 * fifth message loses its identifiers: it routes to every live group,
 * and when several can take it the checker forks them (case 2).
 */
std::vector<core::CheckMessage>
forkRepairMessages()
{
    collect::ShippingConfig shipping;
    shipping.tailProbability = 0.05;
    shipping.tailMin = 0.05;
    shipping.tailMax = 0.6;
    shipping.seed = 5;
    std::vector<core::CheckMessage> messages =
        checkMessages(streamRecords(5, 16, true, 8, shipping));
    for (std::size_t i = 4; i < messages.size(); i += 5)
        messages[i].identifiers.clear();
    return messages;
}

/** Monitor config of the wire stream: hardened ingest, plus a memory
 *  ceiling low enough that shedToMemory evicts, so its choices follow
 *  approxRetainedBytes. */
core::MonitorConfig
hardenedConfig()
{
    core::MonitorConfig config;
    config.ingest = core::hardenedIngestDefaults();
    config.ingest.maxResidentBytes = 8 * 1024;
    config.ingest.memoryCheckInterval = 16;
    return config;
}

/** bench_resilience-style transport adversity over eight users. */
std::vector<std::string>
perturbedLines()
{
    collect::PerturbationConfig adversity;
    adversity.dropProbability = 0.01;
    adversity.duplicateProbability = 0.01;
    adversity.clockSkewMaxSeconds = 0.05;
    adversity.clockDriftMaxPerSecond = 0.0005;
    adversity.truncateProbability = 0.002;
    adversity.corruptProbability = 0.002;
    adversity.burstProbability = 0.0002;
    adversity.seed = 3;
    collect::ShippingConfig shipping;
    shipping.seed = 3;
    return collect::StreamPerturber(adversity)
        .apply(streamRecords(3, 8, false, 24, shipping))
        .lines;
}

/**
 * The three streams, built once and in a fixed order. Identifier tokens
 * are numbered by the process interner in first-seen order and
 * checkpoints carry them, so every stream's identifiers are interned
 * here, before any test runs its own: the pinned values then hold for
 * any subset and order of tests.
 */
struct Streams
{
    std::vector<core::CheckMessage> table6 = table6Messages();
    std::vector<core::CheckMessage> forkRepair = forkRepairMessages();
    std::vector<std::string> wire = perturbedLines();

    Streams()
    {
        core::WorkflowMonitor primer(hardenedConfig(), models().catalog,
                                     models().automataCopy());
        for (const std::string &line : wire)
            primer.feedLine(line);
    }
};

const Streams &
streams()
{
    static const Streams built;
    return built;
}

} // namespace

TEST(GroupState, CleanTable6MatchesPinnedBehaviour)
{
    const Pin pin =
        pinChecker(streams().table6, core::CheckerConfig{}, 30.0);
    printPin("table6", pin);
    expectPin(pin, Pin{0xf5ee81eccf2b3a16ULL,
                        {1173, 877, 0, 159, 96, 41, 0, 0, 0, 0, 0, 0, 0, 96,
                         1058},
                        0x9f12790466336913ULL,
                        0x3f494085af69090bULL,
                        0xf5ee81eccf2b3a16ULL});
}

TEST(GroupState, ForkAndRepairStreamMatchesPinnedBehaviour)
{
    const Pin pin =
        pinChecker(streams().forkRepair, core::CheckerConfig{}, 30.0);
    printPin("forkRepair", pin);
    // The stream must exercise what it is here for.
    ASSERT_GT(pin.stats[2], 100u) << "case 2 forks";
    ASSERT_GT(pin.stats[6], 100u) << "recovery (d) repairs";
    expectPin(pin, Pin{0x6f3b119d185c6701ULL,
                        {1529, 438, 163, 100, 128, 244, 342, 114, 0, 55, 59,
                         0, 0, 81, 40453},
                        0xd8f71fe3c6e7d327ULL,
                        0xd28c2168d63eced7ULL,
                        0x6f3b119d185c6701ULL});
}

TEST(GroupState, PerturbedWireStreamThroughHardenedMonitor)
{
    const std::vector<std::string> &lines = streams().wire;
    const core::MonitorConfig config = hardenedConfig();

    Pin pin;
    const std::size_t mid = lines.size() / 2;
    std::uint64_t hash = 1469598103934665603ULL;
    core::WorkflowMonitor monitor(config, models().catalog,
                                  models().automataCopy());
    for (std::size_t i = 0; i < mid; ++i) {
        for (const core::MonitorReport &report : monitor.feedLine(lines[i]))
            hash = mixReport(hash, report);
    }
    common::BinWriter image;
    monitor.saveState(image);
    pin.midState = fnv1a(image.bytes());
    const std::uint64_t atMid = hash;

    auto finishRun = [&lines, mid](core::WorkflowMonitor &m,
                                   std::uint64_t h) {
        for (std::size_t i = mid; i < lines.size(); ++i) {
            for (const core::MonitorReport &report : m.feedLine(lines[i]))
                h = mixReport(h, report);
        }
        for (const core::MonitorReport &report : m.finish())
            h = mixReport(h, report);
        return h;
    };
    pin.reports = finishRun(monitor, hash);
    pin.stats = statsFields(monitor.stats());
    pin.stats.push_back(monitor.ingestStats().memoryEvictions);
    pin.stats.push_back(monitor.ingestStats().reorderBufferPeak);
    pin.stats.push_back(monitor.ingestStats().forcedReleases);
    pin.stats.push_back(monitor.ingestStats().duplicatesSuppressed);

    core::WorkflowMonitor restored(config, models().catalog,
                                   models().automataCopy());
    common::BinReader reader(image.bytes());
    ASSERT_TRUE(restored.restoreState(reader));
    pin.resumed = finishRun(restored, atMid);
    printPin("perturbedMonitor", pin);
    ASSERT_GT(pin.stats[15], 0u) << "the memory ceiling must evict";
    expectPin(pin, Pin{0xd98ff01f7722204dULL,
                        {2220, 1532, 0, 193, 190, 11, 149, 145, 0, 9, 0, 0,
                         39, 149, 1893, 39, 11, 0, 13},
                        // The monitor hides its checker; the 39
                        // evictions above pin approxRetainedBytes here.
                        0,
                        0x82daafd5750e70feULL,
                        0xd98ff01f7722204dULL});
}
