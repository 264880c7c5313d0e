/**
 * @file
 * seer-scope facade: one object bundling the monitor's metric
 * registry, execution tracer, and periodic health-snapshot stream
 * (DESIGN.md §11).
 *
 * Null-sink by default: MonitorConfig carries an ObsConfig whose
 * every field is off, and a monitor with that config never constructs
 * an Observability at all — the hot path sees a null pointer test and
 * nothing else, keeping the uninstrumented monitor bit-identical in
 * behavior and within noise in throughput.
 *
 * The facade deliberately knows nothing about checker or monitor
 * types (obs sits below core in the link graph). The monitor flattens
 * its CheckerStats/IngestStats/interner/timeout-policy state into a
 * HealthSample of plain numbers; the facade stores the sample series,
 * refreshes the registry from the newest sample, and renders both.
 */

#ifndef CLOUDSEER_OBS_OBSERVABILITY_HPP
#define CLOUDSEER_OBS_OBSERVABILITY_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/health_fields.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cloudseer::obs {

/** Observability knobs. Every default is off (the null sink). */
struct ObsConfig
{
    /** Maintain the metric registry and feed-latency histogram. */
    bool metrics = false;

    /** Record per-execution spans (implies their histograms). */
    bool tracing = false;

    /**
     * Emit a health snapshot every this many seconds of *message*
     * time (the monitor clock, not wall time — replays of the same
     * stream produce the same snapshot series). 0 = off.
     */
    double snapshotIntervalSeconds = 0.0;

    /** Closed spans retained before the oldest are dropped. */
    std::size_t maxTraceSpans = 4096;

    /** Health snapshots retained (ring; oldest dropped). */
    std::size_t maxSnapshots = 4096;

    /** Flight recorder (seer-flight forensics); default off. */
    FlightRecorderConfig flightRecorder;

    /** True when any sink is active. */
    bool
    enabled() const
    {
        return metrics || tracing || snapshotIntervalSeconds > 0.0 ||
               flightRecorder.enabled();
    }
};

/** The per-monitor observability bundle. */
class Observability
{
  public:
    explicit Observability(const ObsConfig &config);

    const ObsConfig &config() const { return cfg; }

    MetricsRegistry &metrics() { return registry; }
    const MetricsRegistry &metrics() const { return registry; }

    /** The tracer, or nullptr when tracing is off. */
    ExecutionTracer *tracer() { return tracerPtr.get(); }
    const ExecutionTracer *tracer() const { return tracerPtr.get(); }

    /** The flight recorder, or nullptr when it is off. */
    FlightRecorder *flight() { return flightPtr.get(); }
    const FlightRecorder *flight() const { return flightPtr.get(); }

    /** Record one feed's processing latency (microseconds). */
    void recordFeedLatency(double micros);

    /** Feed-latency histogram (null when metrics are off). */
    const Histogram *feedLatency() const { return feedLatencyHist; }

    /**
     * WAL append-latency histogram, created on first request (null
     * when metrics are off). VaultedMonitor requests it at
     * construction so a vaulted instrumented monitor always exposes
     * seer_wal_append_us; bare monitors never create it.
     */
    Histogram *walAppendLatency();
    const Histogram *walAppendLatencyIfAny() const { return walHist; }

    /**
     * Identify this build in exposition (seer_build_info,
     * seer_uptime_seconds and the /buildz payload — seer-pulse,
     * DESIGN.md §16). Uptime counts from construction.
     */
    void setBuildInfo(const std::string &version,
                      const std::string &model_fingerprint);

    const std::string &buildVersion() const { return version; }
    const std::string &modelFingerprint() const { return fingerprint; }

    /** Wall-clock seconds since this facade was constructed. */
    double uptimeSeconds() const;

    /** True when the message clock crossed the snapshot interval. */
    bool snapshotDue(double message_time) const;

    /**
     * Store one sample (advancing the snapshot clock) and refresh
     * the registry counters/gauges from it.
     */
    void addSnapshot(const HealthSample &sample);

    /** Snapshot series, oldest first (bounded by maxSnapshots). */
    const std::vector<HealthSample> &snapshots() const
    {
        return history;
    }

    /** Refresh the registry from `current` and render Prometheus.
     *  Empty when metrics are off (e.g. a flight-only config). */
    std::string prometheusText(const HealthSample &current);

    /** The snapshot series as newline-separated JSON lines. */
    std::string snapshotJsonLines() const;

    /**
     * Serialise the durable observability state (seer-vault, DESIGN.md
     * §13): the feed-latency histogram, the health-snapshot series,
     * and the snapshot clock. Tracer spans and flight-recorder rings
     * are deliberately excluded — both are short-horizon diagnostics
     * that re-warm during WAL replay.
     */
    void saveState(common::BinWriter &out) const;

    /**
     * Restore state written by saveState into a facade constructed
     * with the same ObsConfig (the config decides which sinks exist;
     * a histogram-shape mismatch fails the restore).
     */
    bool restoreState(common::BinReader &in);

  private:
    ObsConfig cfg;
    MetricsRegistry registry;
    std::unique_ptr<ExecutionTracer> tracerPtr;
    std::unique_ptr<FlightRecorder> flightPtr;
    Histogram *feedLatencyHist = nullptr;
    Histogram *walHist = nullptr;
    std::vector<HealthSample> history;
    double lastSnapshotTime = 0.0;
    bool anySnapshot = false;
    std::string version;
    std::string fingerprint;
    std::chrono::steady_clock::time_point startedAt;

    void updateRegistry(const HealthSample &sample);
};

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_OBSERVABILITY_HPP
