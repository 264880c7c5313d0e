/**
 * @file
 * seer-pulse: the live telemetry-and-alerting plane (DESIGN.md §16).
 *
 * seer-scope made the monitor introspectable after the fact; pulse
 * makes it observable while it runs. Three pieces compose here:
 *
 *  - RateEngine: rolling-window + EWMA rates over HealthSample
 *    deltas. Samples are keyed to the *message clock*, so a replay of
 *    the same stream yields the same rate series — the rates that
 *    drive alerting are as deterministic as the checker itself.
 *  - AlertEngine: a burn-rate rule pack with a pending → firing →
 *    resolved state machine (pending min-age before firing, a
 *    hysteresis ratio plus min-hold before resolving) that emits
 *    {"kind":"ALERT"} JSONL records for the report stream and a
 *    dedicated alert log.
 *  - TelemetryServer: a push-model wrapper over common::HttpServer.
 *    The monitor renders /metrics, /healthz, /alerts, and /buildz
 *    bodies at snapshot cadence and publishes them under the server
 *    mutex; scrape handlers copy the latest published string and
 *    never touch checker state.
 *
 * The default rule pack uses only deterministic signals (checker and
 * ingest counters, measured on the message clock), so every run of
 * one stream emits identical ALERT records, a checkpoint-restored run
 * included. Wall-clock signals (feed latency, WAL append latency) are
 * available to user rule files but excluded from the deterministic
 * defaults.
 */

#ifndef CLOUDSEER_OBS_PULSE_HPP
#define CLOUDSEER_OBS_PULSE_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/http_server.hpp"
#include "obs/observability.hpp"

namespace cloudseer::obs {

/** Signals the rate engine computes each snapshot. */
enum class PulseSignal : std::uint8_t
{
    TemplateMissRate,       ///< recovery (a) per checker message
    DivergenceRecoveryRate, ///< recoveries (c)+(d) per message
    ShedRate,               ///< cap sheds + evictions per second
    BackpressureRate,       ///< forced reorder releases per second
    ErrorRate,              ///< error reports per message
    TimeoutRate,            ///< timeout reports per message
    WalAppendP99Us,         ///< WAL append p99 level (wall clock)
    FeedP99Us,              ///< feed latency p99 level (wall clock)
};

constexpr std::size_t kPulseSignalCount = 8;

/** Stable exposition name ("template_miss_rate", ...). */
const char *pulseSignalName(PulseSignal signal);

/** Parse an exposition name back; false on unknown. */
bool parsePulseSignal(const std::string &name, PulseSignal &signal);

/** True for signals derived from wall-clock latencies (see @file). */
bool pulseSignalIsWallClock(PulseSignal signal);

/** One rate-engine evaluation: instantaneous window rates + EWMA. */
struct PulseRates
{
    double time = 0.0;          ///< message-clock time of newest sample
    double windowSeconds = 0.0; ///< span actually covered
    std::uint64_t samplesInWindow = 0;

    std::array<double, kPulseSignalCount> value{};
    std::array<double, kPulseSignalCount> ewma{};

    // Raw window deltas the /healthz degraded verdict keys off.
    std::uint64_t shedDelta = 0;
    std::uint64_t evictionDelta = 0;
    std::uint64_t forcedReleaseDelta = 0;
    std::uint64_t capRejectDelta = 0;

    double valueOf(PulseSignal s) const
    {
        return value[static_cast<std::size_t>(s)];
    }
    double ewmaOf(PulseSignal s) const
    {
        return ewma[static_cast<std::size_t>(s)];
    }

    /** {"time":...,"signals":{name:{"value":v,"ewma":e},...}} */
    std::string toJson() const;
};

/** One burn-rate rule: fire when a signal stays above threshold. */
struct AlertRule
{
    std::string name;
    PulseSignal signal = PulseSignal::ErrorRate;
    double threshold = 0.0;      ///< fire when value > threshold
    double pendingSeconds = 0.0; ///< min age above threshold to fire
    double holdSeconds = 0.0;    ///< min firing age before resolving
    /** Hysteresis: resolve only once value < resolveRatio*threshold. */
    double resolveRatio = 0.8;
    bool useEwma = false; ///< evaluate the EWMA instead of the window
};

/**
 * The deterministic default pack: template-miss, divergence-recovery,
 * shed, backpressure, error, and timeout burn rules — message-clock
 * signals only.
 */
std::vector<AlertRule> defaultAlertRules();

/**
 * Parse a rules file: one `rule <name> signal=<s> threshold=<v>
 * [pending=<sec>] [hold=<sec>] [resolve=<ratio>] [ewma]` per line,
 * '#' comments and blank lines ignored. Returns false and sets
 * `error` (with a line number) on the first malformed rule.
 */
bool parseAlertRules(const std::string &text,
                     std::vector<AlertRule> &rules,
                     std::string &error);

/** Alert lifecycle states. */
enum class AlertState : std::uint8_t
{
    Inactive,
    Pending,
    Firing,
};

const char *alertStateName(AlertState state);

/** One emitted lifecycle transition. */
struct AlertRecord
{
    std::string rule;
    PulseSignal signal = PulseSignal::ErrorRate;
    std::string state; ///< "pending", "firing", or "resolved"
    double time = 0.0;
    double since = 0.0; ///< when the condition began
    double value = 0.0;
    double threshold = 0.0;

    /** Single-line {"kind":"ALERT",...} JSON. */
    std::string toJson() const;
};

/** Pending → firing → resolved evaluation over a rule pack. */
class AlertEngine
{
  public:
    explicit AlertEngine(std::vector<AlertRule> rule_pack);

    /**
     * Evaluate every rule against one rate observation; returns the
     * lifecycle transitions that occurred (a cancelled pending emits
     * nothing — it never paged anyone).
     */
    std::vector<AlertRecord> evaluate(const PulseRates &rates);

    const std::vector<AlertRule> &rules() const { return pack; }

    bool anyFiring() const;

    /** {"active":[...]} — pending and firing alerts. */
    std::string activeJson(double now) const;

  private:
    struct RuleState
    {
        AlertState state = AlertState::Inactive;
        double since = 0.0;       ///< condition start (pending entry)
        double firingSince = 0.0; ///< firing entry, for the min-hold
        double lastValue = 0.0;
    };

    std::vector<AlertRule> pack;
    std::vector<RuleState> states;
};

/** Rolling-window + EWMA rates over the health-snapshot series. */
class RateEngine
{
  public:
    RateEngine(double window_seconds, double ewma_alpha);

    /** Fold one snapshot in and recompute every signal. */
    const PulseRates &observe(const HealthSample &sample);

    const PulseRates &rates() const { return current; }

  private:
    double windowSeconds;
    double alpha;
    std::deque<HealthSample> window; // oldest first, spans the window
    PulseRates current;
    bool anyEwma = false;
};

/** seer-pulse knobs (MonitorConfig → ObsConfig.pulse); default off. */
struct PulseConfig
{
    /** Master switch for the rate engine + alert engine. */
    bool enabled = false;

    /** Sliding-window span, message-clock seconds. */
    double windowSeconds = 60.0;

    /** EWMA smoothing factor in (0, 1]. */
    double ewmaAlpha = 0.2;

    /**
     * Scrape-server port: <0 = no HTTP endpoint, 0 = ephemeral (read
     * back via WorkflowMonitor::pulsePort()), >0 = fixed.
     */
    int httpPort = -1;

    std::string httpBindAddress = "127.0.0.1";

    /** Rule pack; empty = defaultAlertRules(). */
    std::vector<AlertRule> rules;

    /** Dedicated alert log (JSONL, appended); "" = off. */
    std::string alertLogPath;

    /**
     * Sample one in this many records through the per-stage pipeline
     * timers (sink→parse→route→check→verdict); 0 = timers off.
     */
    std::size_t stageSampleEvery = 0;

    bool enabledAny() const { return enabled; }
};

/**
 * The per-monitor pulse bundle: rate engine + alert engine + alert
 * sinks. The monitor calls observe() right after each addSnapshot, so
 * the alert series rides the same message-clock cadence as the health
 * series.
 */
class PulseEngine
{
  public:
    explicit PulseEngine(const PulseConfig &config);

    const PulseConfig &config() const { return cfg; }

    /** Fold a snapshot in; evaluate rules; log + queue any records. */
    void observe(const HealthSample &sample);

    const PulseRates &rates() const { return rateEngine.rates(); }
    const AlertEngine &alerts() const { return alertEngine; }

    /** Firing alerts or degradation deltas in the current window. */
    bool degraded() const;

    /** {"status":"ok"|"degraded",...} body for /healthz. */
    std::string healthzJson() const;

    /** Active-alert JSON body for /alerts. */
    std::string alertsJson() const;

    /**
     * ALERT JSONL lines emitted since the last drain (for the report
     * stream); the dedicated alert log receives them regardless.
     */
    std::vector<std::string> drainAlertLines();

  private:
    PulseConfig cfg;
    RateEngine rateEngine;
    AlertEngine alertEngine;
    std::vector<std::string> pendingLines;
    std::ofstream alertLog; // open iff cfg.alertLogPath non-empty
};

/** Rendered /buildz body (version, model, uptime). */
std::string buildInfoJson(const std::string &version,
                          const std::string &model_fingerprint,
                          double uptime_seconds);

/**
 * Push-model scrape endpoint. The owner publishes rendered documents;
 * handlers serve the latest copies. Thread-safe: publish() and the
 * HTTP thread synchronise on one mutex held only for string copies.
 */
class TelemetryServer
{
  public:
    struct Documents
    {
        std::string metrics; ///< Prometheus text
        std::string healthz; ///< JSON
        std::string alerts;  ///< JSON
        std::string buildz;  ///< JSON
    };

    TelemetryServer(const std::string &bind_address,
                    std::uint16_t port);

    /** Bind + launch; false (error() set) when the bind fails. */
    bool start();
    void stop();

    bool running() const { return server.running(); }
    std::uint16_t port() const { return server.boundPort(); }
    const std::string &error() const { return server.error(); }

    void publish(Documents docs);

    /**
     * Arm `/profilez?seconds=N` (seer-probe, DESIGN.md §17): the
     * provider is called with the clamped capture window (0.1–60 s,
     * default 5) and returns the profile JSON — empty means "profiler
     * busy" and maps to 503. Runs on the HTTP thread and blocks it
     * for the window, which is fine for a one-scraper pull endpoint.
     * Must be set before start(). Without a provider the path 404s.
     */
    void setProfileProvider(
        std::function<std::string(double seconds)> provider);

  private:
    common::HttpServer server;
    std::mutex mutex;
    Documents current;
    std::function<std::string(double)> profileProvider;

    common::HttpResponse serve(const std::string &body,
                               const std::string &content_type);
};

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_PULSE_HPP
