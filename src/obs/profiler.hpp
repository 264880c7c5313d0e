#pragma once

/**
 * seer-probe: in-process sampling CPU profiler with per-stage cost
 * attribution (DESIGN.md §17).
 *
 * A SIGPROF handler driven by a process-CPU-time timer captures the
 * interrupted thread's stack (common/stackcapture) into a fixed
 * preallocated sample ring, tagging each sample with the pipeline
 * stage the thread was executing — sink → parse → route → check →
 * verdict, and the WAL append — via cheap
 * `StageScope` RAII markers that write one thread-local word. Nothing
 * in the handler allocates, locks, or formats; symbolisation happens
 * at `collect()` time only.
 *
 * The profiler is a null object when disabled: the monitor constructs
 * nothing, no signal handler or timer is installed, and the stage
 * markers degrade to two TLS stores per scope, so reports and
 * event-stream digests are bit-identical with profiling on or off
 * (pinned by tests/profiler_test and the `bench_throughput --profile`
 * digest gate).
 *
 * Optional allocation attribution (per-stage byte/count tallies via
 * global operator-new hooks) is compiled out by default; configure
 * with -DCLOUDSEER_PROFILE_ALLOC=ON to enable it.
 */

#include "common/stackcapture.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <signal.h>

namespace cloudseer::obs {

/** Pipeline stages a sample can be attributed to — aligned with the
 *  seer-pulse stage lanes (DESIGN.md §16). */
enum class ProfStage : std::uint8_t {
    None = 0,   ///< untagged: outside any marked pipeline section
    Sink,       ///< ingest arrival (decode, flight capture, buffering)
    Parse,      ///< template match + identifier extraction/interning
    Route,      ///< clock guard, dedup, routing-index selection
    Check,      ///< Algorithm 2 step
    Verdict,    ///< shedding, report assembly, snapshot publishing
    WalAppend,  ///< seer-vault write-ahead ledger append
};

inline constexpr int kProfStageCount = 7;

/** Stable lower-case stage name ("untagged", "sink", ...). */
const char *profStageName(ProfStage stage);

namespace detail {
/** The active stage tag for this thread: the stage in the low byte.
 *  `volatile` because the SIGPROF handler reads it between any two
 *  instructions of the same thread; no atomicity is needed for a
 *  single-thread-written word. */
extern thread_local volatile std::uint32_t tlsStageWord;
} // namespace detail

/**
 * RAII stage marker: two TLS stores per scope (save + set, restore on
 * exit), cheap enough to sit unconditionally on the hot path. Scopes
 * nest; the innermost wins.
 */
class StageScope
{
public:
    explicit StageScope(ProfStage stage) noexcept
        : saved_(detail::tlsStageWord)
    {
        detail::tlsStageWord = static_cast<std::uint32_t>(stage);
    }
    ~StageScope() { detail::tlsStageWord = saved_; }
    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

private:
    std::uint32_t saved_;
};

/** The calling thread's active stage tag. */
inline ProfStage
currentProfStage() noexcept
{
    return static_cast<ProfStage>(detail::tlsStageWord & 0xffu);
}

struct ProfilerConfig
{
    bool enabled = false; ///< off by default: nothing is installed
    int hz = 99;          ///< SIGPROF rate (process CPU time)
    std::size_t maxSamples = 16384; ///< ring capacity; overflow drops
};

/** One aggregated stack in a collected profile: root-first symbolised
 *  frames under a stage tag, with its sample count. */
struct ProfileStack
{
    ProfStage stage = ProfStage::None;
    std::uint64_t count = 0;
    std::vector<std::string> frames; ///< root first, leaf last
};

/** A collected, symbolised profile — what `/profilez`, the bench and
 *  `seer_prof` all consume. */
struct Profile
{
    int hz = 0;
    double durationSeconds = 0.0;
    std::uint64_t samples = 0; ///< kept samples (excludes dropped)
    std::uint64_t dropped = 0; ///< ring-overflow drops
    std::array<std::uint64_t, kProfStageCount> stageSamples{};
    std::vector<ProfileStack> stacks; ///< count-desc, deterministic
    bool allocTracked = false;
    std::array<std::uint64_t, kProfStageCount> allocBytes{};
    std::array<std::uint64_t, kProfStageCount> allocCounts{};

    /** Fraction of samples attributed to any tagged stage. */
    double taggedFraction() const;

    /** flamegraph.pl-compatible collapsed stacks: one line per stack,
     *  root-first semicolon-joined frames (stage tag as the root
     *  frame), a space, and the sample count. */
    std::string toFolded() const;

    /** Self-describing JSON ({"kind":"PROFILE", ...}); one stack per
     *  line so line-oriented tools can stream it. */
    std::string toJson() const;
};

/** Parse a profile back from its `toJson()` form. Returns false (and
 *  leaves `out` untouched) when `text` is not a PROFILE document. */
bool parseProfileJson(const std::string &text, Profile &out);

/**
 * The sampling profiler. At most one instance can be running per
 * process (the SIGPROF disposition is process-global); a second
 * `start()` fails cleanly. Construction allocates the sample ring but
 * installs nothing — only `start()` touches signal state, and
 * `stop()`/destruction restores the previous disposition.
 */
class Profiler
{
public:
    explicit Profiler(const ProfilerConfig &config);
    ~Profiler();
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Install the SIGPROF handler and arm the timer. False when
     *  another profiler is already running or the timer fails. */
    bool start();

    /** Disarm the timer and restore the previous SIGPROF disposition.
     *  Safe to call repeatedly. */
    void stop();

    bool running() const { return running_; }
    const ProfilerConfig &config() const { return config_; }

    /** Samples kept so far — one atomic load, no symbolisation, so a
     *  driver can poll it to decide when a run has enough evidence. */
    std::uint64_t
    sampleCount() const
    {
        std::uint64_t claimed =
            writeIndex_.load(std::memory_order_relaxed);
        return claimed < config_.maxSamples ? claimed
                                            : config_.maxSamples;
    }

    /** Symbolise and aggregate everything sampled so far. Callable
     *  while running (a live `/profilez` pull) or after `stop()`. */
    Profile collect() const;

    /** True when operator-new allocation attribution was compiled in
     *  (-DCLOUDSEER_PROFILE_ALLOC=ON). */
    static bool allocTrackingCompiledIn();

    /// @cond internal — handler-side entry point, not user API.
    void recordSample() noexcept;
    /// @endcond

private:
    static constexpr int kMaxFrames = 32;

    struct RawSample
    {
        std::atomic<std::uint32_t> ready{0};
        std::uint32_t stageWord = 0;
        std::uint16_t depth = 0;
        void *frames[kMaxFrames];
    };

    ProfilerConfig config_;
    std::unique_ptr<RawSample[]> ring_;
    std::atomic<std::uint64_t> writeIndex_{0};
    std::atomic<std::uint64_t> dropped_{0};
    common::ProfTimer timer_;
    struct sigaction oldAction_ = {};
    std::chrono::steady_clock::time_point startTime_{};
    double stoppedDuration_ = 0.0;
    bool running_ = false;
};

} // namespace cloudseer::obs
