/**
 * @file
 * The CloudSeer facade: online workflow monitoring over a log stream.
 *
 * Owns the task automata, the template catalog binding, the message
 * parsing front-end, and the interleaved checker; drives the timeout
 * criterion from message timestamps. This is the class a deployment
 * embeds next to its log collector.
 *
 * A configurable ingest-hardening pipeline sits in front of the
 * checker (DESIGN.md §8): reorder buffer → timestamp guard →
 * near-duplicate suppression → checker → group-cap shedding, plus a
 * malformed-line quarantine on the wire path. Every guard is
 * pass-through at its default setting, so a default-configured
 * monitor behaves bit-identically to the unhardened one.
 */

#ifndef CLOUDSEER_CORE_MONITOR_WORKFLOW_MONITOR_HPP
#define CLOUDSEER_CORE_MONITOR_WORKFLOW_MONITOR_HPP

#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/ingest_guards.hpp"
#include "core/monitor/report.hpp"
#include "core/monitor/timeout_estimator.hpp"
#include "logging/log_codec.hpp"
#include "logging/log_record.hpp"
#include "logging/variable_extractor.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"
#include "obs/pulse.hpp"

namespace cloudseer::core {

/**
 * Ingest-hardening knobs. Every field's default disables its guard,
 * keeping the monitor bit-identical to the unhardened path; the
 * hardenedIngestDefaults() profile enables all of them at values that
 * absorb moderate transport adversity.
 */
struct IngestConfig
{
    /**
     * Watermark lag of the reorder buffer, seconds. Records are held
     * until the highest timestamp seen exceeds theirs by this much,
     * then released in timestamp order — undoing cross-node shipping
     * and skew inversions at the cost of that much added latency.
     * 0 = no buffering (records flow straight through).
     */
    double reorderWindowSeconds = 0.0;

    /**
     * Hard bound on buffered records. On overflow the oldest records
     * are force-released (counted in IngestStats) so a stalled
     * watermark can never grow the buffer without bound.
     */
    std::size_t reorderBufferCap = 4096;

    /**
     * Clamp non-monotonic message timestamps to the monitor clock
     * instead of letting a backwards stamp plant a group in the past
     * (where the next sweep would retroactively time it out). The
     * clock itself never moves backwards either way.
     */
    bool clampNonMonotonic = false;

    /**
     * Suppress near-duplicate messages — same (node, service,
     * template, identifiers, timestamp) seen within this window,
     * seconds. Catches at-least-once shipper re-deliveries without
     * touching genuine repeats, which carry distinct timestamps.
     * 0 = off.
     */
    double dedupWindowSeconds = 0.0;

    /**
     * Hard cap on checker groups. When a feed pushes the live count
     * past the cap, the oldest-idle groups are shed, each emitting a
     * Degraded report. 0 = unbounded.
     */
    std::size_t maxActiveGroups = 0;

    /** Malformed lines retained verbatim for diagnosis, per monitor. */
    std::size_t quarantineSampleCap = 16;

    /**
     * Memory ceiling over checker state (seer-vault, DESIGN.md §13):
     * when the checker's deterministic size estimate exceeds this many
     * bytes, least-recently-active groups are shed with Degraded
     * reports — the same contract as maxActiveGroups, in bytes. The
     * estimate counts only snapshot-persisted state, so a restored
     * monitor evicts identically to the uninterrupted one. 0 = no
     * ceiling.
     */
    std::size_t maxResidentBytes = 0;

    /**
     * Check the memory ceiling every this many delivered records; the
     * estimate is O(state), so per-record checks would dominate the
     * hot path. Cadence keys off recordsDelivered (serialised state),
     * never wall time. Values below 1 behave as 1.
     */
    std::uint64_t memoryCheckInterval = 64;

    /**
     * Cap on the process-wide identifier interner (seer-vault).
     * Non-zero installs the capacity at monitor construction; new
     * identifiers past the cap are refused (routing precision degrades
     * for them; memory does not grow) and tallied in seer-scope. 0 —
     * the default — leaves the interner untouched and bit-identical.
     */
    std::size_t maxInternerEntries = 0;

    /**
     * Unused: nothing reads it. It selected the sharded checking
     * engine, which was deleted (DESIGN.md §14); that engine was
     * bit-identical to the serial one, so any value gives the same
     * reports. It stays only because perfbench prints it into its
     * META config, which perfbench/run.py diffs against
     * perfbench/configs.json; it goes once perfbench stops printing it.
     */
    std::size_t numShards = 0;

    /** Unused, like numShards and for the same reason: the capacity
     *  of the deleted sharded engine's rings. */
    std::size_t shardRingCapacity = 512;
};

/** Hardened-profile defaults (all guards on, moderate settings). */
IngestConfig hardenedIngestDefaults();

/** One quarantined wire line. */
struct QuarantinedLine
{
    std::string line;
    logging::DecodeFailure cause = logging::DecodeFailure::None;
};

/** Ingest-pipeline counters (all zero on a clean, ordered stream). */
struct IngestStats
{
    std::uint64_t linesSeen = 0;      ///< feedLine calls
    std::uint64_t recordsDelivered = 0; ///< records reaching the checker

    // Malformed-line quarantine, by cause.
    std::uint64_t malformedBadTimestamp = 0;
    std::uint64_t malformedBadHeader = 0;
    std::uint64_t malformedTruncatedPayload = 0;

    // Timestamp guard.
    std::uint64_t nonMonotonicClamped = 0; ///< backwards stamps seen
    double maxRegressionSeconds = 0.0;     ///< worst backwards jump

    // Near-duplicate suppression.
    std::uint64_t duplicatesSuppressed = 0;

    // Reorder buffer.
    std::size_t reorderBufferPeak = 0;
    std::uint64_t forcedReleases = 0; ///< overflow force-outs

    // Shedding.
    std::uint64_t groupsShed = 0;      ///< group-cap evictions
    std::uint64_t memoryEvictions = 0; ///< memory-ceiling evictions

    /** Total malformed lines across causes. */
    std::uint64_t malformed() const
    {
        return malformedBadTimestamp + malformedBadHeader +
               malformedTruncatedPayload;
    }
};

/** Monitor configuration. */
struct MonitorConfig
{
    /** Timeout criterion threshold, seconds (paper uses 10 s). */
    double timeoutSeconds = 10.0;

    /**
     * Per-task timeout overrides (task name -> seconds), typically
     * from TimeoutEstimator. A group still tracking several tasks
     * gets the most generous candidate's timeout.
     */
    std::map<std::string, double> perTaskTimeouts;

    /** Checker feature toggles (ablations). */
    CheckerConfig checker;

    /** Count bare numbers as identifiers (off by default; noisy). */
    bool numbersAsIdentifiers = false;

    /** Ingest-hardening pipeline (pass-through by default). */
    IngestConfig ingest;

    /**
     * Run the seer-lint passes over the model bundle at construction
     * and refuse (common::fatal) to monitor against a model with
     * error-severity findings — a broken specification produces
     * confidently wrong reports for months. Escape hatch for forensic
     * replays of a historical model: set to false (tools expose it as
     * --no-verify); the report is still computed and kept (loadLint).
     */
    bool verifyModelOnLoad = true;

    /**
     * Read by nothing. It armed the former certified fast path
     * (DESIGN.md §15), whose shortcuts the checker now takes for every
     * message. It stays only because perfbench prints it into its META
     * config; it goes once perfbench stops printing it.
     * The seer-prove analysis runs at every construction and its
     * findings (SL020-SL023) go into loadLint() regardless.
     */
    bool proveFastPath = true;

    /**
     * seer-scope observability (DESIGN.md §11). All-off by default —
     * the null sink — in which case no Observability object is even
     * constructed and the monitor is bit-identical to an
     * uninstrumented one. The flight recorder (seer-flight forensics)
     * lives inside this config and follows the same contract.
     */
    obs::ObsConfig observability;

    /**
     * seer-flight latency criterion (DESIGN.md §12): per-task latency
     * profiles mined offline (mineLatencyProfile, or loaded from the
     * model file's tasklat/edgelat directives). Empty — the default —
     * keeps the criterion off and the monitor bit-identical to a
     * pre-flight one. Non-empty profiles are lint-checked (SL010)
     * against the automata under the same verifyModelOnLoad policy.
     */
    std::vector<LatencyProfile> latencyProfiles;

    /** Budget rule applied to the profile quantiles. */
    LatencyCheckConfig latencyCheck;

    /**
     * seer-pulse live telemetry + alerting (DESIGN.md §16). Off by
     * default — the null sink. Enabling it implies metrics and a
     * snapshot cadence (forced to windowSeconds/6 when no interval is
     * configured) so the rate engine has a heartbeat to chew on.
     */
    obs::PulseConfig pulse;

    /**
     * seer-probe sampling profiler (DESIGN.md §17). Off by default —
     * a true null object: nothing is constructed, no SIGPROF handler
     * or timer is installed, and the stage markers degrade to two TLS
     * stores per pipeline section, so reports are bit-identical
     * (pinned by tests/profiler_test). When enabled, samples tag
     * themselves with the active pipeline stage and a live profile
     * can be pulled over `/profilez?seconds=N` when pulse serves.
     */
    obs::ProfilerConfig profiler;
};

/** Online workflow monitor (modeling output in, reports out). */
class WorkflowMonitor
{
  public:
    /**
     * @param config   Monitor configuration.
     * @param catalog  The catalog modeling interned templates into.
     *                 Shared so callers can render labels.
     * @param automata Task automata from the offline modeling stage.
     */
    WorkflowMonitor(const MonitorConfig &config,
                    std::shared_ptr<logging::TemplateCatalog> catalog,
                    std::vector<TaskAutomaton> automata);

    /**
     * Feed one record through the ingest pipeline. Advances the
     * monitor clock to the record's timestamp (sweeping the timeout
     * criterion), then checks the message. Ground-truth fields on
     * the record are never read.
     */
    std::vector<MonitorReport> feed(const logging::LogRecord &record);

    /** Feed one raw log line (the Logstash-wire path). */
    std::vector<MonitorReport> feedLine(std::string_view line);

    /**
     * End of stream: flush the reorder buffer, run one final timeout
     * sweep past the last timestamp, then flush still-open groups as
     * end-of-stream timeouts.
     */
    std::vector<MonitorReport> finish();

    /** Checker counters. */
    const CheckerStats &stats() const { return checker.stats(); }

    /** Ingest-pipeline counters. */
    const IngestStats &ingestStats() const { return ingest; }

    /** Quarantined malformed lines (bounded sample, oldest first). */
    const std::vector<QuarantinedLine> &quarantine() const
    {
        return quarantined;
    }

    /** Monitor clock: highest message timestamp fed so far. */
    common::SimTime lastTime() const { return lastTimestamp; }

    /** Groups currently in flight. */
    std::size_t activeGroups() const { return checker.activeGroups(); }

    /** Identifier sets currently tracked. */
    std::size_t activeIdentifierSets() const
    {
        return checker.activeIdentifierSets();
    }

    /** The shared template catalog. */
    const logging::TemplateCatalog &catalog() const
    {
        return *catalogPtr;
    }

    /** The automata being monitored against. */
    const std::vector<TaskAutomaton> &automata() const
    {
        return specs;
    }

    /** Lines the monitor failed to parse (feedLine only). */
    std::size_t malformedLines() const
    {
        return static_cast<std::size_t>(ingest.malformed());
    }

    /** Dependency-removal tallies from recovery (d). */
    const RemovalCounts &dependencyRemovals() const
    {
        return checker.dependencyRemovals();
    }

    /** The load-time seer-lint report over the model bundle (always
     *  computed, even with verifyModelOnLoad off). */
    const analysis::LintReport &loadLint() const { return loadReport; }

    /**
     * Refined copies of the automata with every dependency removed at
     * least `min_removals` times weakened (Figure 4 at the model
     * level) — feed these into the next monitor generation.
     */
    std::vector<TaskAutomaton> refinedAutomata(int min_removals) const;

    // --- seer-scope (DESIGN.md §11) -----------------------------------

    /** True when any observability sink is configured. */
    bool observabilityEnabled() const { return obsPtr != nullptr; }

    /** The observability bundle, or nullptr in null-sink mode. */
    obs::Observability *observability() { return obsPtr.get(); }
    const obs::Observability *observability() const
    {
        return obsPtr.get();
    }

    /** Flatten the monitor's current state into one health sample. */
    obs::HealthSample healthSample() const;

    /**
     * Prometheus text exposition of the metric catalog, refreshed
     * from live state. Empty string in null-sink mode.
     */
    std::string prometheusText();

    /** One fresh health snapshot as single-line JSON ("" when off). */
    std::string healthSnapshotJson() const;

    /**
     * Chrome trace_event JSON of the recorded execution spans
     * (loads in about:tracing / Perfetto). "" when tracing is off.
     */
    std::string chromeTraceJson() const;

    // --- seer-pulse (DESIGN.md §16) ------------------------------------

    /** True when the pulse plane (rate + alert engines) is armed. */
    bool pulseEnabled() const { return pulsePtr != nullptr; }

    /** The pulse engine, or nullptr when pulse is off. */
    const obs::PulseEngine *pulse() const { return pulsePtr.get(); }

    /**
     * ALERT JSONL records emitted since the last drain, for
     * interleaving into the report stream (the dedicated alert log,
     * when configured, receives them regardless). Empty when pulse
     * is off.
     */
    std::vector<std::string> drainAlertJson();

    /**
     * The scrape endpoint's bound TCP port (resolves an ephemeral
     * pulse.httpPort = 0), or -1 when no endpoint is serving.
     */
    int pulsePort() const;

    /** /healthz body ("" when pulse is off). */
    std::string healthzJson() const;

    /** /buildz body ("" when observability is off). */
    std::string buildzJson() const;

    /**
     * Re-render and publish all four scrape documents to the
     * telemetry server. Runs automatically at snapshot cadence; call
     * explicitly to tighten freshness (e.g. a serve loop). No-op
     * without an endpoint.
     */
    void publishPulse();

    // --- seer-probe (DESIGN.md §17) ------------------------------------

    /** True when the continuous sampling profiler is armed. */
    bool profilerEnabled() const { return profPtr != nullptr; }

    /** The running profiler, or nullptr when profiling is off. */
    obs::Profiler *profiler() { return profPtr.get(); }

    /**
     * Capture a profile over the next `seconds` of wall time and
     * return its JSON — the `/profilez` provider. Uses the armed
     * continuous profiler when there is one (sleeps, then drains what
     * it holds), else spins up a transient profiler for the window.
     * Blocks the calling thread; "" when a competing profiler holds
     * the process-wide SIGPROF slot.
     */
    std::string liveProfileJson(double seconds);

    // --- seer-flight (DESIGN.md §12) -----------------------------------

    /** The flight recorder, or nullptr when it is off. */
    const obs::FlightRecorder *flightRecorder() const
    {
        return obsPtr == nullptr ? nullptr : obsPtr->flight();
    }

    /**
     * Forensic bundles captured so far as newline-separated JSON
     * objects (the seer_postmortem input). "" when the recorder is
     * off or nothing fired.
     */
    std::string forensicBundleJsonLines() const
    {
        return flightRecorder() == nullptr
                   ? std::string()
                   : flightRecorder()->bundleJsonLines();
    }

    // --- seer-vault (DESIGN.md §13) ------------------------------------

    /**
     * Fingerprint of the automata this monitor checks against. A
     * vault checkpoint records it; restore refuses a mismatch.
     */
    std::uint64_t modelFingerprint() const
    {
        return core::modelFingerprint(pointersTo(specs));
    }

    /**
     * Serialise the full mutable monitor state: clock, ingest
     * counters, quarantine, reorder buffer, dedup window, timeout
     * policy, checker, and (when configured) observability.
     * Config, catalog, and automata are construction inputs and are
     * the caller's to re-supply; the process-wide interner is
     * snapshotted separately by the vault (it outlives any monitor).
     */
    void saveState(common::BinWriter &out) const;

    /**
     * Overwrite this monitor from a saveState image taken by a
     * monitor with the same config, catalog, automata, and
     * observability shape. After a successful restore, feeding the
     * remaining stream yields reports bit-identical to the
     * uninterrupted run's.
     */
    bool restoreState(common::BinReader &in);

  private:
    MonitorConfig config;
    TimeoutPolicy timeoutPolicy;
    std::shared_ptr<logging::TemplateCatalog> catalogPtr;
    std::vector<TaskAutomaton> specs;
    logging::VariableExtractor extractor;
    analysis::LintReport loadReport;

    /** Algorithm 2 over `specs`; declared after them, so it is built
     *  from the automata the monitor owns. */
    InterleavedChecker checker;

    std::unique_ptr<obs::Observability> obsPtr; ///< null = null sink

    // seer-pulse (DESIGN.md §16); both null when pulse is off.
    std::unique_ptr<obs::PulseEngine> pulsePtr;
    std::unique_ptr<obs::TelemetryServer> pulseServer;

    // seer-probe (DESIGN.md §17); null when profiling is off.
    std::unique_ptr<obs::Profiler> profPtr;

    // Sampled per-stage pipeline timers (sink→parse→route→check→
    // verdict); all null unless pulse.stageSampleEvery > 0.
    obs::Histogram *stageSink = nullptr;
    obs::Histogram *stageParse = nullptr;
    obs::Histogram *stageRoute = nullptr;
    obs::Histogram *stageCheck = nullptr;
    obs::Histogram *stageVerdict = nullptr;
    std::size_t stageEvery = 0;

    common::SimTime lastTimestamp = 0.0;
    bool anyFed = false;
    IngestStats ingest;
    std::vector<QuarantinedLine> quarantined;

    ReorderBuffer reorderBuffer;

    /** Dedup state: keys delivered within the window. */
    DedupWindow recentKeys;

    /** Scratch for flight-recorder line encoding (reused per record). */
    std::string flightScratch;

    // Hot-path scratch (DESIGN.md §18): reused by every call, so the
    // steady state allocates only for state that outlives the call.

    /** feedLine's decode target when the reorder buffer is off. */
    logging::LogRecord lineRecord;
    /** deliver's template/variable split of the record body. */
    logging::ParsedBody parsedBody;
    /** deliver's message to the checker. */
    CheckMessage checkMessage;
    /** deliver's dedup key, built in place. */
    std::string dedupKey;

    /**
     * feed()'s body. `parked` says `record` is reorderBuffer.vacant()
     * itself, decoded into by feedLine, so the buffer takes it where
     * it lies instead of copying it.
     */
    std::vector<MonitorReport> admit(const logging::LogRecord &record,
                                     bool parked);

    /** Guarded delivery: clock, dedup, checker, shedding. */
    void deliver(const logging::LogRecord &record,
                 std::vector<MonitorReport> &reports);

    /** Park the record filled into reorderBuffer.vacant() and
     *  deliver the records it releases. */
    void bufferAndRelease(std::vector<MonitorReport> &reports);

    /**
     * Freeze the flight-recorder context into one forensic bundle per
     * problem report (ErrorDetected, Timeout, LatencyAnomaly) in
     * `reports`. No-op without a flight recorder.
     */
    void captureBundles(const std::vector<MonitorReport> &reports);

    /**
     * Append the head of one report's forensic bundle to `out`: every
     * member before the context the recorder renders on read. The
     * head needs the catalog and the interner, which the recorder does
     * not know, so identifiers are resolved to text here, at freeze
     * time.
     */
    void appendBundleHead(std::string &out,
                          const MonitorReport &report) const;

    /** Feed the newest snapshot to the pulse engine and publish. */
    void pulseStep();

    static std::vector<const TaskAutomaton *>
    pointersTo(const std::vector<TaskAutomaton> &automata);
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_MONITOR_WORKFLOW_MONITOR_HPP
