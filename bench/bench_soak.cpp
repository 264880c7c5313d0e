/**
 * @file
 * Long-horizon soak harness for seer-vault (DESIGN.md §13).
 *
 * Drives a vaulted monitor through a compressed diurnal traffic
 * pattern — epochs of varying load, each a fresh fault-injected
 * workload shipped through the perturbed wire path — while a
 * reference monitor (same config, never killed) consumes the
 * identical inputs in lockstep. Periodically the vaulted monitor is
 * killed without warning (destroyed mid-epoch, torn bytes appended to
 * its ledger as a crash would leave) and reconstructed from disk; the
 * soak then asserts the restore-fidelity contract at three points:
 *
 *  1. replay: recovery's replayed reports equal the reference's
 *     reports for the same ledger-seq range;
 *  2. resend: inputs lost to ledger truncation (the collector's
 *     retransmit path) reproduce the reference's reports;
 *  3. lockstep: every subsequent input — and the final finish() —
 *     yields byte-identical reportToJson output on both monitors.
 *
 * Any mismatch is a hard failure (exit 1): this is the CI gate that
 * "restore = same verdicts" stays true as the checker evolves.
 *
 * Along the way it charts RSS (VmRSS), memory-ceiling evictions,
 * interner cap rejections, checkpoint latency/size, and ledger size
 * per epoch into BENCH_soak.json. The monitor runs with a hard
 * memory ceiling, so a flat RSS line with nonzero evictions is the
 * bounded-memory claim as data.
 *
 * Usage: bench_soak [--smoke] [--out <path>] [--dir <vault-dir>]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "collect/stream_merger.hpp"
#include "collect/stream_perturber.hpp"
#include "common/rng.hpp"
#include "core/monitor/report_json.hpp"
#include "eval/modeling_harness.hpp"
#include "sim/simulation.hpp"
#include "vault/vaulted_monitor.hpp"
#include "workload/workload_generator.hpp"

using namespace cloudseer;

namespace {

/** One input as fed, kept so truncation-lost inputs can be resent. */
struct SavedInput
{
    bool isLine = false;
    logging::LogRecord record;
    std::string line;
};

/** Per-epoch chart row. */
struct EpochRow
{
    int epoch = 0;
    double loadFactor = 0.0;
    std::size_t inputs = 0;
    std::uint64_t rssKb = 0;
    std::size_t activeGroups = 0;
    std::uint64_t memoryEvictions = 0;  ///< cumulative
    std::uint64_t capRejected = 0;      ///< cumulative
    std::uint64_t checkpoints = 0;      ///< cumulative
    std::uint64_t checkpointsFailed = 0; ///< cumulative
    double checkpointMs = 0.0;          ///< explicit end-of-epoch one
    std::uint64_t checkpointBytes = 0;
    std::uint64_t walPeakBytes = 0;
    bool killed = false;
    std::uint64_t replayed = 0;
    std::uint64_t resent = 0;
};

std::uint64_t
readRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** Concatenated reportToJson lines for one input's reports. */
std::string
renderReports(const std::vector<core::MonitorReport> &reports,
              const logging::TemplateCatalog &catalog)
{
    std::string out;
    for (const core::MonitorReport &report : reports) {
        out += core::reportToJson(report, catalog);
        out += '\n';
    }
    return out;
}

std::string
toJson(const std::vector<EpochRow> &rows, bool smoke,
       std::size_t total_inputs, int kills, int fidelity_failures,
       std::uint64_t max_rss_kb)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\n  \"bench\": \"soak\",\n  \"smoke\": "
        << (smoke ? "true" : "false") << ",\n  \"epochs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const EpochRow &row = rows[i];
        out << "    {\"epoch\": " << row.epoch
            << ", \"load\": " << row.loadFactor
            << ", \"inputs\": " << row.inputs
            << ", \"rss_kb\": " << row.rssKb
            << ", \"active_groups\": " << row.activeGroups
            << ", \"memory_evictions\": " << row.memoryEvictions
            << ", \"interner_cap_rejected\": " << row.capRejected
            << ", \"checkpoints\": " << row.checkpoints
            << ", \"checkpoints_failed\": " << row.checkpointsFailed
            << ", \"checkpoint_ms\": " << row.checkpointMs
            << ", \"checkpoint_bytes\": " << row.checkpointBytes
            << ", \"wal_peak_bytes\": " << row.walPeakBytes
            << ", \"killed\": " << (row.killed ? "true" : "false")
            << ", \"replayed\": " << row.replayed
            << ", \"resent\": " << row.resent << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    std::uint64_t evictions =
        rows.empty() ? 0 : rows.back().memoryEvictions;
    std::uint64_t rejected = rows.empty() ? 0 : rows.back().capRejected;
    out << "  ],\n  \"summary\": {\"inputs\": " << total_inputs
        << ", \"kills\": " << kills
        << ", \"fidelity_failures\": " << fidelity_failures
        << ", \"max_rss_kb\": " << max_rss_kb
        << ", \"memory_evictions\": " << evictions
        << ", \"interner_cap_rejected\": " << rejected << "}\n}\n";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_soak.json";
    std::string vault_dir = "soak_vault.tmp";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
            vault_dir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out path] "
                         "[--dir vault-dir]\n",
                         argv[0]);
            return 2;
        }
    }

    std::printf("seer-vault soak (%s)\n", smoke ? "smoke" : "full");

    // Offline models: the paper-scale convergence loop is overkill for
    // a durability soak; a short modeling pass yields the same eight
    // automata shapes in a fraction of the time (matters under ASan).
    eval::ModelingConfig modeling;
    modeling.minRuns = smoke ? 40 : 80;
    modeling.checkEvery = 10;
    modeling.stableChecks = 3;
    modeling.maxRuns = smoke ? 120 : 300;
    eval::ModeledSystem models = eval::buildModels(modeling);

    // Monitor config: memory ceiling on, interner capped — the soak
    // is exactly the scenario those guards exist for. Both monitors
    // share it, so eviction decisions stay lockstep.
    core::MonitorConfig monitor_config;
    monitor_config.ingest.maxResidentBytes = smoke ? 6 * 1024
                                                   : 16 * 1024;
    monitor_config.ingest.memoryCheckInterval = 16;
    monitor_config.ingest.maxInternerEntries = smoke ? 256 : 2048;

    vault::VaultConfig vault_config;
    vault_config.directory = vault_dir;
    vault_config.checkpointEveryRecords = smoke ? 500 : 2000;

    std::error_code ec;
    std::filesystem::remove_all(vault_dir, ec);

    auto vaulted = std::make_unique<vault::VaultedMonitor>(
        vault_config, monitor_config, models.catalog,
        models.automataCopy());
    core::WorkflowMonitor reference(monitor_config, models.catalog,
                                    models.automataCopy());
    const logging::TemplateCatalog &catalog = *models.catalog;

    // refJsonBySeq[s] = the reference's rendered reports for input
    // seq s (1-based); savedInputs[s] = the input itself, for the
    // retransmit path after ledger truncation.
    std::vector<std::string> refJsonBySeq = {""};
    std::vector<SavedInput> savedInputs = {SavedInput{}};

    const int epochs = smoke ? 6 : 36;
    const int kill_every = 2; ///< kill mid-epoch on every 2nd epoch
    common::Rng killRng(0x50a6ULL);
    std::vector<EpochRow> rows;
    int kills = 0;
    int fidelity_failures = 0;
    std::uint64_t max_rss_kb = 0;
    double clock_offset = 0.0;

    auto fidelityFail = [&fidelity_failures](const char *where,
                                             std::uint64_t seq) {
        std::fprintf(stderr,
                     "FAIL: fidelity mismatch (%s) at seq %llu\n",
                     where,
                     static_cast<unsigned long long>(seq));
        ++fidelity_failures;
    };

    for (int epoch = 0; epoch < epochs; ++epoch) {
        // Compressed diurnal curve: one "day" every 12 epochs, load
        // swinging between ~10% and 100% of the base fleet.
        double phase = 2.0 * 3.14159265358979 *
                       static_cast<double>(epoch) / 12.0;
        double load = 0.55 + 0.45 * std::sin(phase);
        std::uint64_t epoch_seed =
            0x5eedULL + static_cast<std::uint64_t>(epoch) * 7919;

        sim::SimConfig sim_config;
        sim::Simulation simulation(sim_config, epoch_seed);
        workload::WorkloadConfig wl;
        wl.users = std::max(
            1, static_cast<int>(std::lround((smoke ? 4 : 8) * load)));
        wl.tasksPerUser = smoke ? 6 : 12;
        wl.singleUid = false;
        wl.seed = epoch_seed ^ 0x3141ULL;
        workload::WorkloadGenerator generator(wl);
        generator.submitAll(simulation);
        simulation.run();

        collect::ShippingConfig shipping;
        shipping.tailProbability = 0.005;
        shipping.tailMin = 0.05;
        shipping.tailMax = 0.4;
        shipping.seed = epoch_seed ^ 0x5a1cULL;
        std::vector<logging::LogRecord> stream =
            collect::mergeStream(simulation.records(), shipping);

        // Stitch epochs into one continuous timeline so groups from
        // a previous epoch age out naturally instead of being
        // clobbered by a clock jump back to zero.
        double epoch_end = clock_offset;
        for (logging::LogRecord &record : stream) {
            record.timestamp += clock_offset;
            epoch_end = std::max(epoch_end, record.timestamp);
        }
        clock_offset = epoch_end + 30.0;

        // Mild transport adversity on the wire path, every epoch.
        collect::PerturbationConfig adversity;
        adversity.dropProbability = 0.002;
        adversity.duplicateProbability = 0.002;
        adversity.truncateProbability = 0.001;
        adversity.corruptProbability = 0.001;
        adversity.clockSkewMaxSeconds = 0.02;
        adversity.seed = epoch_seed ^ 0xadd5ULL;
        collect::PerturbedStream wire =
            collect::StreamPerturber(adversity).apply(stream);

        EpochRow row;
        row.epoch = epoch;
        row.loadFactor = load;
        row.inputs = wire.lines.size();
        row.killed = (epoch % kill_every) == 1;
        std::size_t kill_at =
            row.killed ? wire.lines.size() / 2 +
                             static_cast<std::size_t>(killRng.uniformInt(
                                 0, static_cast<int>(
                                        wire.lines.size() / 4)))
                       : wire.lines.size() + 1;

        for (std::size_t i = 0; i < wire.lines.size(); ++i) {
            // Decode outside the monitor so a surviving line carries
            // its record id (same convention as the resilience
            // harness); undecodable lines exercise the quarantine.
            SavedInput input;
            std::optional<logging::LogRecord> decoded =
                logging::decodeLogLine(wire.lines[i]);
            if (decoded) {
                decoded->id = wire.records[i].id;
                input.record = *decoded;
            } else {
                input.isLine = true;
                input.line = wire.lines[i];
            }

            std::string ref_json = renderReports(
                input.isLine ? reference.feedLine(input.line)
                             : reference.feed(input.record),
                catalog);
            std::string vault_json = renderReports(
                input.isLine ? vaulted->feedLine(input.line)
                             : vaulted->feed(input.record),
                catalog);
            savedInputs.push_back(input);
            refJsonBySeq.push_back(std::move(ref_json));
            std::uint64_t seq = savedInputs.size() - 1;
            if (vault_json != refJsonBySeq.back())
                fidelityFail("lockstep", seq);
            row.walPeakBytes =
                std::max(row.walPeakBytes, vaulted->stats().walBytes);

            if (i + 1 == kill_at) {
                // Kill: destroy without a final checkpoint (per-append
                // flush makes this equivalent to SIGKILL), leave a
                // torn frame on the ledger as a crash mid-append
                // would, and on odd kills also rip off complete tail
                // bytes so some inputs are genuinely lost and must be
                // retransmitted.
                ++kills;
                vaulted.reset();
                std::string wal = vault::ledgerPath(vault_dir);
                bool lose_tail = kills % 2 == 0;
                if (lose_tail) {
                    auto size = std::filesystem::file_size(wal, ec);
                    if (!ec && size > 40) {
                        std::filesystem::resize_file(
                            wal,
                            size - static_cast<std::uintmax_t>(
                                       killRng.uniformInt(20, 39)),
                            ec);
                    }
                }
                std::ofstream torn(wal, std::ios::binary |
                                            std::ios::app);
                torn << "\x07torn";
                torn.close();

                vaulted = std::make_unique<vault::VaultedMonitor>(
                    vault_config, monitor_config, models.catalog,
                    models.automataCopy());
                const vault::RecoverResult &rec = vaulted->recovery();
                row.replayed += rec.replayedInputs;

                // Gate 1: replayed reports == reference reports over
                // the replayed seq range.
                std::string expect;
                for (std::uint64_t s = rec.checkpointSeq + 1;
                     s <= rec.lastReplayedSeq; ++s)
                    expect += refJsonBySeq[s];
                if (renderReports(rec.replayReports, catalog) !=
                    expect)
                    fidelityFail("replay", rec.lastReplayedSeq);

                // Gate 2: retransmit inputs the torn tail lost (the
                // collector's ack cursor would still hold them) and
                // demand the reference's reports back.
                for (std::uint64_t s = rec.lastReplayedSeq + 1;
                     s <= seq; ++s) {
                    const SavedInput &lost = savedInputs[s];
                    std::string json = renderReports(
                        lost.isLine ? vaulted->feedLine(lost.line)
                                    : vaulted->feed(lost.record),
                        catalog);
                    ++row.resent;
                    if (json != refJsonBySeq[s])
                        fidelityFail("resend", s);
                }
            }
        }

        // Explicit end-of-epoch checkpoint, timed: the latency an
        // operator pays for an on-demand snapshot at this state size.
        auto t0 = std::chrono::steady_clock::now();
        vaulted->checkpoint();
        row.checkpointMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();

        const core::IngestStats &ingest =
            vaulted->monitor().ingestStats();
        const logging::InternerStats interner =
            logging::IdentifierInterner::process().stats();
        row.rssKb = readRssKb();
        row.activeGroups = vaulted->monitor().activeGroups();
        row.memoryEvictions = ingest.memoryEvictions;
        row.capRejected = interner.capRejected;
        row.checkpoints = vaulted->stats().checkpointsTaken;
        row.checkpointsFailed = vaulted->stats().checkpointsFailed;
        row.checkpointBytes = vaulted->stats().lastCheckpointBytes;
        max_rss_kb = std::max(max_rss_kb, row.rssKb);
        rows.push_back(row);
        std::printf("  epoch %2d load %.2f inputs %5zu rss %6llu kB "
                    "groups %4zu evict %4llu ckpt %.1f ms%s\n",
                    row.epoch, row.loadFactor, row.inputs,
                    static_cast<unsigned long long>(row.rssKb),
                    row.activeGroups,
                    static_cast<unsigned long long>(
                        row.memoryEvictions),
                    row.checkpointMs, row.killed ? "  [killed]" : "");
    }

    // Gate 3: end-of-stream flushes must agree too.
    std::string ref_final = renderReports(reference.finish(), catalog);
    std::string vault_final =
        renderReports(vaulted->finish(), catalog);
    if (ref_final != vault_final)
        fidelityFail("finish", savedInputs.size() - 1);

    std::ofstream out(out_path);
    out << toJson(rows, smoke, savedInputs.size() - 1, kills,
                  fidelity_failures, max_rss_kb);
    out.close();
    std::printf("wrote %s\n", out_path.c_str());
    std::printf("%d kills, %d fidelity failure(s), peak RSS %llu kB\n",
                kills, fidelity_failures,
                static_cast<unsigned long long>(max_rss_kb));

    // The vault directory is left in place deliberately: the final
    // checkpoint + ledger are the run's durable snapshot (CI uploads
    // them as an artifact, and seer_vault can autopsy them). The next
    // run cleans it at startup.
    return fidelity_failures == 0 ? 0 : 1;
}
