/**
 * @file
 * VaultedMonitor: a WorkflowMonitor with crash-safe durability.
 *
 * Wraps the monitor behind the vault's write-ahead discipline: every
 * input is appended to the ledger *before* it reaches the monitor, and
 * a checkpoint of the full monitor + interner state is taken every
 * `checkpointEveryRecords` inputs (rotating the ledger each time). On
 * construction over an existing vault directory, the wrapper restores
 * the newest checkpoint and replays the ledger tail, after which the
 * monitor emits verdicts bit-identical to an uninterrupted run — the
 * restore-fidelity contract pinned by tests/vault_test.cpp and gated
 * in bench_soak.
 *
 * With a disabled VaultConfig (empty directory) nothing durability-
 * related is constructed or touched: feed/feedLine/finish are pure
 * delegation and the monitor is bit-identical to a bare one — the
 * same null-sink contract seer-scope and seer-flight follow.
 */

#ifndef CLOUDSEER_VAULT_VAULTED_MONITOR_HPP
#define CLOUDSEER_VAULT_VAULTED_MONITOR_HPP

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor/workflow_monitor.hpp"
#include "vault/vault.hpp"

namespace cloudseer::vault {

/** What construction-time recovery found and did. */
struct RecoverResult
{
    /** A checkpoint or non-empty ledger existed to recover from. */
    bool attempted = false;

    /** State was restored (checkpoint loaded and/or tail replayed). */
    bool recovered = false;

    /** Why recovery failed or was partial ("" when clean). */
    std::string error;

    /** Ledger seq the loaded checkpoint covered (0 = none). */
    std::uint64_t checkpointSeq = 0;

    /** Highest ledger seq replayed (== checkpointSeq when no tail). */
    std::uint64_t lastReplayedSeq = 0;

    /** Tail inputs replayed through the monitor. */
    std::uint64_t replayedInputs = 0;

    /** The ledger tail's torn-crash signature was seen and dropped. */
    bool ledgerTorn = false;

    /**
     * Reports the replayed tail produced, in order. These duplicate
     * reports the pre-crash process already emitted for those inputs
     * — the fidelity tests compare them against the uninterrupted
     * run's reports for the same seq range.
     */
    std::vector<core::MonitorReport> replayReports;
};

/** A WorkflowMonitor persisted through the vault. */
class VaultedMonitor
{
  public:
    /**
     * Construct the monitor and, when the vault is enabled, run
     * recovery (restore newest checkpoint, replay ledger tail) and
     * take an immediate post-recovery checkpoint — so the on-disk
     * state is clean (empty ledger, current image) from the first
     * input onward. Construction inputs must match the checkpointed
     * process's (the model fingerprint is verified; config and
     * catalog are trusted, as with any restoreState). A refused
     * restore starts the monitor fresh — the incompatible files are
     * renamed to `*.refused` for autopsy, never replayed and never
     * silently overwritten.
     */
    VaultedMonitor(VaultConfig vault_config,
                   const core::MonitorConfig &monitor_config,
                   std::shared_ptr<logging::TemplateCatalog> catalog,
                   std::vector<core::TaskAutomaton> automata);

    /** Ledger the input, feed it, maybe checkpoint. */
    std::vector<core::MonitorReport>
    feed(const logging::LogRecord &record);

    /** Ledger the raw line, feed it, maybe checkpoint. */
    std::vector<core::MonitorReport> feedLine(std::string_view line);

    /**
     * Delegate finish(), then (when enabled) checkpoint the final
     * state so a restart after a clean end restores to it.
     */
    std::vector<core::MonitorReport> finish();

    /**
     * Take a checkpoint now: snapshot interner + monitor, write the
     * image atomically, rotate the ledger. Returns false when the
     * vault is disabled or the write failed (the monitor keeps
     * running either way; durability degrades to the previous
     * checkpoint plus the un-rotated ledger).
     */
    bool checkpoint();

    /** True when a vault directory is configured. */
    bool enabled() const { return config.enabled(); }

    /** What construction-time recovery found (zeroed when disabled). */
    const RecoverResult &recovery() const { return recoverInfo; }

    /** Durability counters (walBytes refreshed on call). */
    VaultStats stats() const;

    /** The wrapped monitor. */
    core::WorkflowMonitor &monitor() { return *monitorPtr; }
    const core::WorkflowMonitor &monitor() const { return *monitorPtr; }

  private:
    VaultConfig config;
    core::MonitorConfig monitorConfig;
    std::shared_ptr<logging::TemplateCatalog> catalogPtr;
    std::vector<core::TaskAutomaton> specs;

    // unique_ptr so a refused restore can discard the half-written
    // monitor and start over from the construction inputs.
    std::unique_ptr<core::WorkflowMonitor> monitorPtr;

    std::unique_ptr<WriteAheadLedger> ledger; ///< null when disabled
    RecoverResult recoverInfo;
    VaultStats tallies;
    std::uint64_t nextSeq = 0; ///< seq of the last ledgered input
    std::uint64_t inputsSinceCheckpoint = 0;

    // Checkpoint section encoders, reused across checkpoints.
    common::BinWriter internerImage;
    common::BinWriter monitorImage;

    // seer-pulse (DESIGN.md §16): sampled ledger append latency, fed
    // into the monitor's seer_wal_append_us histogram. Null unless the
    // wrapped monitor has metrics on.
    obs::Histogram *walLatency = nullptr;
    std::uint64_t walTick = 0; ///< 1-in-8 sampling counter

    /** Restore checkpoint + replay tail; fills recoverInfo. */
    void recover();

    /** Rebuild a fresh monitor from the construction inputs. */
    void resetMonitor();

    /** Checkpoint when the cadence knob says so. */
    void maybeCheckpoint();
};

} // namespace cloudseer::vault

#endif // CLOUDSEER_VAULT_VAULTED_MONITOR_HPP
