/**
 * @file
 * Heap-allocation budget of the steady-state wire path.
 *
 * WorkflowMonitor::feedLine decodes, extracts and checks into scratch
 * the monitor and checker own (DESIGN.md §18), so once warmed up a line
 * allocates only for state that outlives the call: newly interned
 * identifiers, index entries for new tokens, and the reports; new
 * groups and identifier sets reuse retired ones' buffers. This binary
 * replaces the global operator new with a counting one and holds a
 * seeded simulator stream (Table 3 group 6 traffic: four users behind
 * one UID) to a per-line budget. A second test arms the flight recorder
 * and holds the calls that freeze a forensic bundle to the allocations
 * the same calls make without the recorder. A third holds the checker's
 * forking and repairing calls on a fork-heavy stream to a budget. A
 * fourth kills a vaulted monitor with a short and a four-times longer
 * ledger tail and holds recovery to the same per-line budget, and its
 * peak heap to a bound that does not grow with the tail: the counter
 * also tracks live bytes (malloc_usable_size) for that. A fifth pins
 * what a new identifier costs a private interner: its allocations and
 * the live bytes per entry. A sixth holds the wire front end alone
 * (decodeLogLineInto, parseInto and the catalog lookup) to no
 * allocation at all once its scratch is warm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <malloc.h>

#include "collect/stream_merger.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"
#include "collect/stream_perturber.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/log_codec.hpp"
#include "logging/template_catalog.hpp"
#include "logging/variable_extractor.hpp"
#include "sim/simulation.hpp"
#include "vault/vaulted_monitor.hpp"
#include "workload/workload_generator.hpp"

namespace {

bool counting = false;
std::uint64_t allocations = 0;
// Live and peak heap through operator new, counted at all times.
std::int64_t liveBytes = 0;
std::int64_t peakBytes = 0;

void *
countedAlloc(std::size_t n) noexcept
{
    if (counting)
        ++allocations;
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p != nullptr) {
        liveBytes += static_cast<std::int64_t>(malloc_usable_size(p));
        peakBytes = std::max(peakBytes, liveBytes);
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p != nullptr)
        liveBytes -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}

void *
countedAllocOrThrow(std::size_t n)
{
    void *p = countedAlloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Every unaligned form, so that no allocation escapes the count and
// every block is freed by the allocator that made it (the sanitizer
// build checks that pairing).
void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace {

using namespace cloudseer;

/**
 * Allocations per line allowed once the monitor is warmed up. Measured
 * 0.59 (first monitor) and 0.46 (second) on this stream, down from 5.1
 * and 4.7 before groups, identifier sets and their index entries were
 * recycled (DESIGN.md §19), from 0.81 for the first monitor before the
 * interner stored each identifier's text once (DESIGN.md §18), and from
 * 0.70 before its index was a flat table (DESIGN.md §9.2). What is
 * left is the reports, one allocation per newly interned identifier
 * (its text), and index entries for brand-new tokens. The headroom is
 * for standard-library differences: a new temporary per line would
 * exceed it.
 */
constexpr double kBudgetPerLine = 1.3;

/**
 * Allocations per forking or repairing feed() call once warm. Measured
 * 1.26 (0.85 for the other calls of the same stream): a fork still
 * grows state the other calls do not, posting entries for the pooled
 * set's tokens and the parents' child links, and a recycled node's
 * buffers grow the first time it holds a larger group.
 */
constexpr double kForkRepairBudgetPerCall = 1.5;

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

/** Records of a seeded Table 3 group-6 run, in collector order. */
std::vector<logging::LogRecord>
table6Records(std::uint64_t seed, int tasks_per_user = 24)
{
    sim::Simulation simulation(sim::SimConfig{}, seed);
    workload::WorkloadConfig traffic;
    traffic.users = 4;
    traffic.singleUid = true;
    traffic.tasksPerUser = tasks_per_user;
    traffic.seed = seed;
    workload::WorkloadGenerator(traffic).submitAll(simulation);
    simulation.run();
    collect::ShippingConfig shipping;
    shipping.seed = seed;
    return collect::mergeStream(simulation.records(), shipping);
}

/** Wire lines of a seeded Table 3 group-6 run, in collector order. */
std::vector<std::string>
table6Lines(std::uint64_t seed, int tasks_per_user = 24)
{
    std::vector<std::string> lines;
    for (const logging::LogRecord &record :
         table6Records(seed, tasks_per_user))
        lines.push_back(logging::encodeLogLine(record));
    return lines;
}

/** Per-line allocations of feedLine after `warm` uncounted lines. */
double
allocationsPerLine(const std::vector<std::string> &lines,
                   std::size_t warm)
{
    core::WorkflowMonitor monitor(core::MonitorConfig{}, models().catalog,
                                  models().automataCopy());
    for (std::size_t i = 0; i < warm; ++i)
        monitor.feedLine(lines[i]);
    allocations = 0;
    for (std::size_t i = warm; i < lines.size(); ++i) {
        // The reports a line returns are part of what it costs.
        counting = true;
        monitor.feedLine(lines[i]);
        counting = false;
    }
    return static_cast<double>(allocations) /
           static_cast<double>(lines.size() - warm);
}

/** What restoring a killed vaulted monitor cost. */
struct RecoveryCost
{
    std::uint64_t replayed = 0;
    std::uint64_t allocations = 0;
    /** Peak live heap during construction, above what the recovered
     *  monitor holds once it returns. */
    std::int64_t peakAboveRestored = 0;
};

/**
 * Feed `lines[0, checkpointed)` through a vaulted monitor, checkpoint,
 * feed `tail` more lines and kill it (destroy without finish); then
 * measure the construction that recovers from that directory.
 */
RecoveryCost
recoverAfterTail(const std::vector<std::string> &lines,
                 std::size_t checkpointed, std::size_t tail,
                 const std::string &dir)
{
    std::filesystem::remove_all(dir);
    vault::VaultConfig vault_config;
    vault_config.directory = dir;
    {
        vault::VaultedMonitor first(vault_config, core::MonitorConfig{},
                                    models().catalog,
                                    models().automataCopy());
        for (std::size_t i = 0; i < checkpointed; ++i)
            first.feedLine(lines[i]);
        first.checkpoint();
        for (std::size_t i = checkpointed; i < checkpointed + tail; ++i)
            first.feedLine(lines[i]);
    }
    std::vector<core::TaskAutomaton> automata = models().automataCopy();
    RecoveryCost cost;
    peakBytes = liveBytes;
    allocations = 0;
    counting = true;
    auto restored = std::make_unique<vault::VaultedMonitor>(
        vault_config, core::MonitorConfig{}, models().catalog,
        std::move(automata));
    counting = false;
    cost.allocations = allocations;
    cost.peakAboveRestored = peakBytes - liveBytes;
    cost.replayed = restored->recovery().replayedInputs;
    EXPECT_TRUE(restored->recovery().recovered)
        << restored->recovery().error;
    restored.reset();
    std::filesystem::remove_all(dir);
    return cost;
}

} // namespace

TEST(AllocBudget, WarmFeedLineStaysWithinBudget)
{
    const std::vector<std::string> lines = table6Lines(1);
    ASSERT_GT(lines.size(), 1000u);
    const std::size_t warm = lines.size() / 4;

    // First monitor: its new identifiers grow the process interner.
    double first = allocationsPerLine(lines, warm);
    // Second monitor over the same lines: every identifier is already
    // interned, so interner growth cannot hide a per-line regression.
    double second = allocationsPerLine(lines, warm);

    std::printf("allocations per line: first monitor %.3f, second %.3f "
                "(budget %.1f)\n",
                first, second, kBudgetPerLine);
    EXPECT_LE(first, kBudgetPerLine);
    EXPECT_LE(second, kBudgetPerLine);
    EXPECT_LE(second, first);
}

TEST(AllocBudget, FreezingABundleAllocatesNothingOnceWarm)
{
    // Drops, truncation and corruption make a problem report every few
    // dozen lines, so a store of eight bundles recycles its slots many
    // times over.
    collect::PerturbationConfig adversity;
    adversity.dropProbability = 0.02;
    adversity.truncateProbability = 0.02;
    adversity.corruptProbability = 0.02;
    adversity.seed = 3;
    const std::vector<std::string> lines =
        collect::StreamPerturber(adversity)
            .apply(table6Records(2, 192))
            .lines;

    core::MonitorConfig bare;
    bare.ingest = core::hardenedIngestDefaults();
    {
        // Intern every identifier first, so that neither monitor below
        // pays for growing the process interner.
        core::WorkflowMonitor primer(bare, models().catalog,
                                     models().automataCopy());
        for (const std::string &line : lines)
            primer.feedLine(line);
    }
    core::MonitorConfig armed = bare;
    armed.observability.flightRecorder.perNodeCapacity = 32;
    armed.observability.flightRecorder.maxBundles = 8;
    core::WorkflowMonitor plain(bare, models().catalog,
                                models().automataCopy());
    core::WorkflowMonitor flighted(armed, models().catalog,
                                   models().automataCopy());
    const obs::FlightRecorder &flight = *flighted.flightRecorder();

    // Warm up over three quarters of the stream: by then every node
    // has a ring and every slot has been recycled more than once.
    std::size_t at = 0;
    for (; at < lines.size() * 3 / 4; ++at) {
        plain.feedLine(lines[at]);
        flighted.feedLine(lines[at]);
    }
    ASSERT_GE(flight.droppedBundles(), 16u);

    // Each line through both monitors: what the recorder adds is the
    // difference, split by whether the call froze a bundle.
    std::uint64_t freezingCalls = 0, freezingExtra = 0;
    std::uint64_t otherCalls = 0, otherExtra = 0;
    for (; at < lines.size(); ++at) {
        allocations = 0;
        counting = true;
        plain.feedLine(lines[at]);
        counting = false;
        const std::uint64_t without = allocations;

        const std::uint64_t frozenBefore = flight.droppedBundles();
        allocations = 0;
        counting = true;
        flighted.feedLine(lines[at]);
        counting = false;
        const std::uint64_t with = allocations;
        ASSERT_GE(with, without) << "line " << at;

        if (flight.droppedBundles() != frozenBefore) {
            ++freezingCalls;
            freezingExtra += with - without;
        } else {
            ++otherCalls;
            otherExtra += with - without;
        }
    }
    ASSERT_GT(freezingCalls, 50u);

    std::printf("flight recorder extra allocations: %llu over %llu "
                "freezing calls, %llu over %llu other calls\n",
                static_cast<unsigned long long>(freezingExtra),
                static_cast<unsigned long long>(freezingCalls),
                static_cast<unsigned long long>(otherExtra),
                static_cast<unsigned long long>(otherCalls));
    // Measured: 0 over 69 freezing calls, 4 over 2,205 others (a ring
    // slot taking a line longer than any it held). The freezing calls'
    // rate may not exceed the others'; a single allocation per freeze
    // would put it above 1.0.
    EXPECT_LE(freezingExtra * otherCalls, otherExtra * freezingCalls);
}

TEST(AllocBudget, ForkingAndRepairingReuseRetiredGroups)
{
    // Sixteen users behind one UID with a slow shipping tail, so late
    // records arrive behind their successors (recovery d repairs), and
    // every fifth message stripped of its identifiers, so it routes to
    // every live group and forks the ones that can take it (case 2).
    // Clones and repairs fill retired groups' buffers; before groups
    // were recycled, the same calls made 27.9 allocations each.
    sim::Simulation simulation(sim::SimConfig{}, 5);
    workload::WorkloadConfig traffic;
    traffic.users = 16;
    traffic.singleUid = true;
    traffic.tasksPerUser = 24;
    traffic.seed = 5;
    workload::WorkloadGenerator(traffic).submitAll(simulation);
    simulation.run();
    collect::ShippingConfig shipping;
    shipping.tailProbability = 0.05;
    shipping.tailMin = 0.05;
    shipping.tailMax = 0.6;
    shipping.seed = 5;
    const std::vector<logging::LogRecord> records =
        collect::mergeStream(simulation.records(), shipping);

    logging::VariableExtractor extractor;
    std::vector<core::CheckMessage> messages;
    for (const logging::LogRecord &record : records) {
        logging::ParsedBody parsed = extractor.parse(record.body);
        core::CheckMessage message;
        message.tpl =
            models().catalog->find(record.service, parsed.templateText);
        if (messages.size() % 5 != 4) {
            for (const logging::Variable &var : parsed.variables) {
                if (var.kind != logging::VariableKind::Number)
                    message.identifiers.push_back(
                        logging::IdentifierInterner::process().intern(
                            var.text));
            }
        }
        message.level = record.level;
        message.record = record.id;
        message.time = record.timestamp;
        messages.push_back(std::move(message));
    }

    std::vector<const core::TaskAutomaton *> automata;
    for (const core::TaskAutomaton &automaton : models().automata)
        automata.push_back(&automaton);
    core::InterleavedChecker checker(core::CheckerConfig{}, automata);
    // A 10 s timeout keeps the live set bounded, so the second half
    // runs on state no larger than the first half built.
    constexpr double kTimeout = 10.0;
    const std::size_t warm = messages.size() / 2;
    std::size_t warmPeak = 0;
    for (std::size_t i = 0; i < warm; ++i) {
        checker.feed(messages[i]);
        if ((i + 1) % 64 == 0)
            checker.sweepTimeouts(messages[i].time, kTimeout);
        warmPeak = std::max(warmPeak, checker.activeGroups());
    }

    std::uint64_t forkRepairCalls = 0, forkRepairAllocs = 0;
    std::uint64_t otherCalls = 0, otherAllocs = 0;
    std::size_t peak = 0;
    for (std::size_t i = warm; i < messages.size(); ++i) {
        const core::CheckerStats before = checker.stats();
        allocations = 0;
        counting = true;
        checker.feed(messages[i]);
        counting = false;
        const core::CheckerStats &after = checker.stats();
        if (after.ambiguous != before.ambiguous ||
            after.recoveredFalseDependency !=
                before.recoveredFalseDependency) {
            ++forkRepairCalls;
            forkRepairAllocs += allocations;
        } else {
            ++otherCalls;
            otherAllocs += allocations;
        }
        if ((i + 1) % 64 == 0)
            checker.sweepTimeouts(messages[i].time, kTimeout);
        peak = std::max(peak, checker.activeGroups());
    }
    ASSERT_GT(forkRepairCalls, 500u);
    ASSERT_LE(peak, warmPeak) << "the measured half must be warm";

    const double forkRepairRate = static_cast<double>(forkRepairAllocs) /
                                  static_cast<double>(forkRepairCalls);
    const double otherRate = static_cast<double>(otherAllocs) /
                             static_cast<double>(otherCalls);
    std::printf("allocations per feed: %.3f over %llu forking or repairing "
                "calls, %.3f over %llu other calls (budget %.2f)\n",
                forkRepairRate,
                static_cast<unsigned long long>(forkRepairCalls), otherRate,
                static_cast<unsigned long long>(otherCalls),
                kForkRepairBudgetPerCall);
    EXPECT_LE(forkRepairRate, kForkRepairBudgetPerCall);
}

TEST(AllocBudget, RecoveryStreamsTheLedgerTail)
{
    const std::vector<std::string> lines = table6Lines(1, 96);
    constexpr std::size_t kCheckpointed = 400;
    constexpr std::size_t kTail = 400;
    ASSERT_GE(lines.size(), kCheckpointed + 4 * kTail);
    {
        // Intern every identifier first, so the interner image every
        // checkpoint carries is the same size in all three runs.
        core::WorkflowMonitor primer(core::MonitorConfig{},
                                     models().catalog,
                                     models().automataCopy());
        for (const std::string &line : lines)
            primer.feedLine(line);
    }
    std::size_t largestFrame = 0;
    for (std::size_t i = kCheckpointed; i < kCheckpointed + 4 * kTail; ++i)
        largestFrame = std::max(largestFrame, lines[i].size() + 8 + 17);

    const std::string dir =
        (std::filesystem::temp_directory_path() / "cloudseer_alloc_vault")
            .string();
    const RecoveryCost none =
        recoverAfterTail(lines, kCheckpointed, 0, dir);
    const RecoveryCost shortTail =
        recoverAfterTail(lines, kCheckpointed, kTail, dir);
    const RecoveryCost longTail =
        recoverAfterTail(lines, kCheckpointed, 4 * kTail, dir);
    ASSERT_EQ(none.replayed, 0u);
    ASSERT_EQ(shortTail.replayed, kTail);
    ASSERT_EQ(longTail.replayed, 4 * kTail);

    const double perLine =
        static_cast<double>(longTail.allocations - shortTail.allocations) /
        static_cast<double>(longTail.replayed - shortTail.replayed);
    std::printf("recovery allocations: %llu with no tail, %llu over %llu "
                "lines, %llu over %llu lines (%.3f per extra line, "
                "budget %.1f)\n",
                static_cast<unsigned long long>(none.allocations),
                static_cast<unsigned long long>(shortTail.allocations),
                static_cast<unsigned long long>(shortTail.replayed),
                static_cast<unsigned long long>(longTail.allocations),
                static_cast<unsigned long long>(longTail.replayed), perLine,
                kBudgetPerLine);
    std::printf("recovery peak above the restored state: %lld bytes with "
                "no tail, %lld and %lld with the tails (largest frame "
                "%zu bytes)\n",
                static_cast<long long>(none.peakAboveRestored),
                static_cast<long long>(shortTail.peakAboveRestored),
                static_cast<long long>(longTail.peakAboveRestored),
                largestFrame);

    // Replay costs what the live path costs per line; the rest is the
    // fixed cost of a recovery with nothing to replay.
    EXPECT_LE(perLine, kBudgetPerLine);
    for (const RecoveryCost *cost : {&shortTail, &longTail})
        EXPECT_LE(static_cast<double>(cost->allocations),
                  static_cast<double>(none.allocations) +
                      kBudgetPerLine * static_cast<double>(cost->replayed));
    // Replay holds one frame at a time: four times the tail may not
    // raise the peak by more than a frame and a read chunk's slack.
    EXPECT_LE(longTail.peakAboveRestored,
              shortTail.peakAboveRestored +
                  static_cast<std::int64_t>(largestFrame) + 64 * 1024);
}

TEST(AllocBudget, InternerCostsOneAllocationPerNewIdentifier)
{
    // Fresh UUIDs, as every boot mints them: enough for many growth
    // steps of the index, so its amortised cost is in the figures.
    constexpr std::size_t kIdentifiers = 20000;
    common::Rng rng(11);
    std::vector<std::string> uuids;
    uuids.reserve(kIdentifiers);
    for (std::size_t i = 0; i < kIdentifiers; ++i)
        uuids.push_back(common::makeUuid(rng));

    logging::IdentifierInterner interner;
    const std::int64_t before = liveBytes;
    allocations = 0;
    counting = true;
    for (const std::string &uuid : uuids)
        interner.intern(uuid);
    counting = false;
    ASSERT_EQ(interner.size(), kIdentifiers);

    const double perIdentifier = static_cast<double>(allocations) /
                                 static_cast<double>(kIdentifiers);
    const double bytesPerEntry = static_cast<double>(liveBytes - before) /
                                 static_cast<double>(kIdentifiers);
    std::printf("interner: %.3f allocations and %.1f live bytes per new "
                "identifier\n",
                perIdentifier, bytesPerEntry);
    // Measured 1.064 and 85.0 B with glibc: the text's 40-byte block,
    // its 32-byte string (a 520-byte deque block holds 16 of them), and
    // 11.5 B of slots (load 0.61) and hashes. With the node-based
    // map the index replaced, the same run made 2.063 allocations and
    // held 121.8 B per identifier.
    EXPECT_LE(perIdentifier, 1.1);
    EXPECT_LE(bytesPerEntry, 90.0);
}

TEST(AllocBudget, WarmFrontEndAllocatesNothing)
{
    // The word-at-a-time decoder, scanner and catalog lookup keep no
    // state of their own: once the record and the parsed body have
    // grown to the longest line and the most variables of the stream,
    // a second pass over it allocates nothing at all.
    const std::vector<std::string> lines = table6Lines(3);
    const logging::VariableExtractor extractor;
    const logging::TemplateCatalog &catalog = *models().catalog;
    logging::LogRecord record;
    logging::ParsedBody parsed;
    std::size_t found = 0;
    auto pass = [&] {
        for (const std::string &line : lines) {
            if (!logging::decodeLogLineInto(line, record))
                continue;
            extractor.parseInto(record.body, parsed);
            if (catalog.find(record.service, parsed.templateText) !=
                logging::kInvalidTemplate) {
                ++found;
            }
        }
    };
    pass();
    found = 0;
    allocations = 0;
    counting = true;
    pass();
    counting = false;
    std::printf("front end: %llu allocations over %zu warm lines\n",
                static_cast<unsigned long long>(allocations),
                lines.size());
    EXPECT_EQ(allocations, 0u);
    // The stream's templates are the mined catalog's.
    EXPECT_GT(found, lines.size() * 9 / 10);
}
