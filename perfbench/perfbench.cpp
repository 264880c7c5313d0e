/**
 * @file
 * Wire-to-verdict benchmark binary. perfbench/run.py orchestrates it;
 * README.md next to this file defines every workload and metric.
 *
 * One process first times the user-visible setup (mining, model file
 * round trip, monitor construction) in kSetupRounds forked children,
 * each as fresh as a new process. It then builds one workload stream
 * from its seed (untimed; the monitor modes may read its wire lines
 * from --stream-cache), mines its own models, warms up on a stream of
 * another seed, and runs first passes over the stream, so the
 * process-wide identifier interner sees the stream's identifiers fresh:
 *
 *   --mode time    --passes timed feedLine passes, each in a child
 *                  forked from the warmed-up process, hooks off
 *   --mode check   the same pass with the allocation counter on, then
 *                  the verdict gates
 *   --mode score   the record path with ground-truth ids over one
 *                  stream of the seed, for exec_miss_share
 *   --mode trace   the split real path (decodeLogLine | feed) with
 *                  spans, then single-layer passes (logging, checker,
 *                  WAL) over the same inputs
 *   --mode vtrace  vault_adverse only: the vaulted pass with spans
 *
 * The last stdout line is one JSON object for run.py.
 */

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/interference.hpp"
#include "collect/stream_merger.hpp"
#include "collect/stream_perturber.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/mining/latency_profile.hpp"
#include "core/mining/model_io.hpp"
#include "core/monitor/timeout_estimator.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/log_codec.hpp"
#include "logging/variable_extractor.hpp"
#include "obs/pulse.hpp"
#include "sim/simulation.hpp"
#include "vault/vault.hpp"
#include "vault/vaulted_monitor.hpp"
#include "workload/workload_generator.hpp"

using namespace cloudseer;

// --- operator new counter ---------------------------------------------
//
// Counts calls and tracks live bytes (malloc_usable_size, so a block
// counts the same on allocation and on release) while `counting` is
// set. Live bytes are tracked as a delta from the moment counting
// starts, which is exactly "peak live bytes minus live bytes at the
// start". Off, the hooks cost one predictable branch. The benchmark is
// single-threaded, so plain counters suffice.

namespace {

bool counting = false;
/** Results of untimed-use work land here so it is not optimised out. */
volatile std::size_t sink = 0;
std::uint64_t allocCalls = 0;
std::int64_t liveBytes = 0;
std::int64_t peakBytes = 0;

void
resetAllocCounter()
{
    allocCalls = 0;
    liveBytes = 0;
    peakBytes = 0;
}

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (n == 0)
        n = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n);
    } else {
        n = (n + align - 1) / align * align;
        p = std::aligned_alloc(align, n);
    }
    if (p != nullptr && counting) {
        ++allocCalls;
        liveBytes += static_cast<std::int64_t>(malloc_usable_size(p));
        peakBytes = std::max(peakBytes, liveBytes);
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    if (counting)
        liveBytes -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}

void *
throwingAlloc(std::size_t n, std::size_t align)
{
    void *p = countedAlloc(n, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return throwingAlloc(n, 0); }
void *operator new[](std::size_t n) { return throwingAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return throwingAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return throwingAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void operator delete(void *p, std::align_val_t) noexcept { countedFree(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
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

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

std::int64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

/** RAII scope for the allocation counter. */
struct CountAllocs
{
    explicit CountAllocs(bool on) : active(on)
    {
        if (active)
            counting = true;
    }
    ~CountAllocs()
    {
        if (active)
            counting = false;
    }
    CountAllocs(const CountAllocs &) = delete;
    CountAllocs &operator=(const CountAllocs &) = delete;
    bool active;
};

// --- workloads -----------------------------------------------------------

enum class WorkloadKind
{
    Table6,
    Inflight1k,
    VaultAdverse,
};

std::optional<WorkloadKind>
parseWorkload(const std::string &name)
{
    if (name == "table6")
        return WorkloadKind::Table6;
    if (name == "inflight1k")
        return WorkloadKind::Inflight1k;
    if (name == "vault_adverse")
        return WorkloadKind::VaultAdverse;
    return std::nullopt;
}

/** Per-workload constants that go with the traffic shape. */
struct Shape
{
    /** Wire lines one user's task adds, measured; turns a requested
     *  stream length into tasks per user. */
    double linesPerTask;
    /** Tasks per user of the warm-up stream. */
    int warmTasks;
};

Shape
shapeFor(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Table6:
        return {12.0, 100};
      case WorkloadKind::Inflight1k:
        return {16.7, 2};
      case WorkloadKind::VaultAdverse:
        return {11.3, 40};
    }
    return {};
}

/** Traffic shape of one workload (task count is the length knob). */
workload::WorkloadConfig
trafficFor(WorkloadKind kind, int tasks_per_user, std::uint64_t seed,
           bool warm_up)
{
    workload::WorkloadConfig wl;
    wl.tasksPerUser = std::max(2, tasks_per_user + tasks_per_user % 2);
    wl.seed = seed ^ 0x770a6bULL;
    switch (kind) {
      case WorkloadKind::Table6:
        // Table 3 group 6: 4 users behind one UID, paper wait/stagger.
        wl.users = 4;
        wl.singleUid = true;
        break;
      case WorkloadKind::Inflight1k:
        // ~1,000 distinct users started 10 ms apart.
        wl.users = 1000;
        wl.singleUid = false;
        wl.userStagger = 0.01;
        // Warm-up keeps the shape at a tenth of the users: enough to
        // warm the same code, without paying a full ramp at 40 us/msg.
        if (warm_up)
            wl.users = 100;
        break;
      case WorkloadKind::VaultAdverse:
        wl.users = 8;
        wl.singleUid = false;
        break;
    }
    return wl;
}

/** Healthy shipper with a small slow tail (the Table 6 transport). */
collect::ShippingConfig
checkingShipping(std::uint64_t seed)
{
    collect::ShippingConfig ship;
    ship.tailProbability = 0.005;
    ship.tailMin = 0.05;
    ship.tailMax = 0.4;
    ship.seed = seed ^ 0x5a1cULL;
    return ship;
}

/** bench_resilience's intensity-1.0 transport adversity. */
collect::PerturbationConfig
adversity(std::uint64_t seed)
{
    collect::PerturbationConfig fault;
    fault.dropProbability = 0.01;
    fault.duplicateProbability = 0.01;
    fault.clockSkewMaxSeconds = 0.05;
    fault.clockDriftMaxPerSecond = 0.0005;
    fault.truncateProbability = 0.002;
    fault.corruptProbability = 0.002;
    fault.burstProbability = 0.0002;
    fault.seed = seed ^ 0xadd5ULL;
    return fault;
}

/** vault_adverse's adversity is drawn afresh for each window of the
 *  stream this long (bench_resilience's run length). */
constexpr double kAdversityWindowSeconds = 180.0;

/** Vault knobs for vault_adverse (the directory is per run). */
constexpr std::uint64_t kCheckpointEveryRecords = 10000;

core::MonitorConfig
monitorConfigFor(WorkloadKind kind)
{
    core::MonitorConfig config; // bare default
    if (kind == WorkloadKind::VaultAdverse) {
        config.ingest = core::hardenedIngestDefaults();
        config.observability.metrics = true;
        config.observability.flightRecorder.perNodeCapacity = 32;
        // About 1% of lines freeze a bundle. A ring this small fills
        // early in each half of the stream (the restore empties it), so
        // heap_peak_mb does not hinge on how many problems a seed has.
        config.observability.flightRecorder.maxBundles = 64;
    }
    return config;
}

/** One generated input: both views plus the scoring ground truth. */
struct Stream
{
    std::vector<logging::LogRecord> records; ///< ids + truth kept
    std::vector<std::string> lines;          ///< what feedLine gets
    std::size_t emittingExecutions = 0;
};

Stream
makeStream(WorkloadKind kind, int tasks_per_user, std::uint64_t seed,
           bool warm_up)
{
    Stream out;
    sim::Simulation simulation(sim::SimConfig{}, seed);
    workload::WorkloadGenerator generator(
        trafficFor(kind, tasks_per_user, seed, warm_up));
    generator.submitAll(simulation);
    simulation.run();
    for (const sim::ExecutionInfo &info :
         simulation.truth().executions()) {
        if (info.anyEmission)
            ++out.emittingExecutions;
    }
    std::vector<logging::LogRecord> merged =
        collect::mergeStream(simulation.records(), checkingShipping(seed));
    if (kind == WorkloadKind::VaultAdverse) {
        // Perturb in windows of kAdversityWindowSeconds, each with its
        // own draw of node skew and drift: drift grows with stream time,
        // and over a long stream it would swamp the 50 ms skew the
        // adversity profile is about (as if clocks never resynced).
        std::size_t begin = 0;
        for (std::uint64_t window = 0; begin < merged.size(); ++window) {
            const common::SimTime until =
                merged[begin].timestamp + kAdversityWindowSeconds;
            std::size_t end = begin;
            while (end < merged.size() && merged[end].timestamp < until)
                ++end;
            std::vector<logging::LogRecord> part(
                merged.begin() + static_cast<std::ptrdiff_t>(begin),
                merged.begin() + static_cast<std::ptrdiff_t>(end));
            collect::PerturbedStream wire =
                collect::StreamPerturber(
                    adversity(seed * 7919ULL + window))
                    .apply(part);
            for (std::size_t i = 0; i < wire.lines.size(); ++i) {
                out.records.push_back(std::move(wire.records[i]));
                out.lines.push_back(std::move(wire.lines[i]));
            }
            begin = end;
        }
    } else {
        out.records = std::move(merged);
        out.lines.reserve(out.records.size());
        for (const logging::LogRecord &record : out.records)
            out.lines.push_back(logging::encodeLogLine(record));
    }
    return out;
}

/**
 * Wire-line cache: u64 count, then per line u32 length + bytes. Only
 * scoring needs the ground truth, and generating a long stream costs
 * about as much as feeding it, so a run generates each stream once.
 */
bool
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::uint64_t count = lines.size();
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const std::string &line : lines) {
        auto len = static_cast<std::uint32_t>(line.size());
        out.write(reinterpret_cast<const char *>(&len), sizeof(len));
        out.write(line.data(), len);
    }
    return static_cast<bool>(out);
}

std::optional<std::vector<std::string>>
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t count = 0;
    if (!in.read(reinterpret_cast<char *>(&count), sizeof(count)))
        return std::nullopt;
    const std::uintmax_t size = std::filesystem::file_size(path);
    if (count > size / sizeof(std::uint32_t))
        return std::nullopt;
    std::vector<std::string> lines(count);
    for (std::string &line : lines) {
        std::uint32_t len = 0;
        if (!in.read(reinterpret_cast<char *>(&len), sizeof(len)) ||
            len > size)
            return std::nullopt;
        line.resize(len);
        if (!in.read(line.data(), len))
            return std::nullopt;
    }
    if (in.peek() != std::ifstream::traits_type::eof())
        return std::nullopt;
    return lines;
}

// --- setup ---------------------------------------------------------------

/** Mining at a fixed run count: long enough to time steadily. */
constexpr std::size_t kMiningRunsPerTask = 800;

/** Setup samples per process (run.py reports their median). */
constexpr int kSetupRounds = 2;

struct SetupTimes
{
    double mineSeconds = 0.0;
    double modelIoMs = 0.0;
    double ctorMs = 0.0;
};

/** Offline mining plus the model-file round trip a deployment does. */
core::ModelBundle
mineAndLoad(SetupTimes &times)
{
    eval::ModelingConfig modeling;
    modeling.minRuns = kMiningRunsPerTask;
    modeling.maxRuns = kMiningRunsPerTask;
    Clock::time_point t0 = Clock::now();
    eval::ModeledSystem mined = eval::buildModels(modeling);
    times.mineSeconds = secondsSince(t0);

    Clock::time_point t1 = Clock::now();
    std::string text =
        core::saveModelsToString(*mined.catalog, mined.automata);
    std::optional<core::ModelBundle> bundle =
        core::loadModelsFromString(text);
    times.modelIoMs = secondsSince(t1) * 1e3;
    if (!bundle) {
        std::fprintf(stderr, "perfbench: model round trip failed\n");
        std::exit(1);
    }
    return std::move(*bundle);
}

// --- report digests ------------------------------------------------------

/** FNV-1a over a canonical rendering of reports. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::uint64_t reports = 0;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void
    pod(const T &value)
    {
        bytes(&value, sizeof(value));
    }
    void
    str(const std::string &s)
    {
        pod(s.size());
        bytes(s.data(), s.size());
    }

    /**
     * Fold one report. Record ids are masked to their count when
     * `mask_records` is set (the wire path carries no ids); identifiers
     * are folded as text so digests compare across processes.
     */
    void
    add(const core::CheckEvent &e, bool end_of_stream, bool mask_records)
    {
        ++reports;
        pod(static_cast<int>(e.kind));
        pod(end_of_stream);
        str(e.taskName);
        pod(e.candidateTasks.size());
        for (const std::string &task : e.candidateTasks)
            str(task);
        pod(e.records.size());
        if (!mask_records) {
            for (logging::RecordId id : e.records)
                pod(id);
        }
        pod(e.frontierTemplates.size());
        for (logging::TemplateId t : e.frontierTemplates)
            pod(t);
        pod(e.expectedTemplates.size());
        for (logging::TemplateId t : e.expectedTemplates)
            pod(t);
        const logging::IdentifierInterner &interner =
            logging::IdentifierInterner::process();
        pod(e.identifiers.size());
        for (logging::IdToken token : e.identifiers)
            str(interner.text(token));
        pod(e.startTime);
        pod(e.time);
        pod(e.group);
        pod(e.edgeTimings.size());
        for (const core::EdgeTiming &edge : e.edgeTimings) {
            pod(edge.from);
            pod(edge.to);
            pod(edge.elapsed);
            pod(edge.budget);
            pod(edge.exceeded);
        }
        pod(e.criticalPath.size());
        for (int event : e.criticalPath)
            pod(event);
        pod(e.totalElapsed);
        pod(e.totalBudget);
    }
    void
    add(const std::vector<core::MonitorReport> &reports, bool mask)
    {
        for (const core::MonitorReport &report : reports)
            add(report.event, report.endOfStream, mask);
    }
    std::string
    hex() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64 ":%" PRIu64, h,
                      reports);
        return buf;
    }
};

bool
isProblem(const std::vector<core::MonitorReport> &reports)
{
    for (const core::MonitorReport &report : reports) {
        switch (report.event.kind) {
          case core::CheckEventKind::ErrorDetected:
          case core::CheckEventKind::Timeout:
          case core::CheckEventKind::LatencyAnomaly:
            return true;
          case core::CheckEventKind::Accepted:
          case core::CheckEventKind::Degraded:
            break;
        }
    }
    return false;
}

// --- small statistics and JSON -------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

/**
 * A pass is cut into kSlices equal slices of its lines. run.py builds a
 * composite pass from the fastest of several passes over each slice, so
 * a slow spell of the host in one pass costs only the slices it covers.
 */
constexpr std::size_t kSlices = 64;

/** First line of `slice` in a pass over `lines` lines. */
std::size_t
sliceBegin(std::size_t slice, std::size_t lines)
{
    return slice * lines / kSlices;
}

/** Wall time of each slice of a pass; finish() counts in the last. */
class SliceTimer
{
  public:
    SliceTimer(std::size_t pass_lines, Clock::time_point start)
        : lines(pass_lines), from(start), seconds(kSlices, 0.0)
    {
    }

    /** Call before feeding line `i`. */
    void
    at(std::size_t i)
    {
        while (slice + 1 < kSlices && i >= sliceBegin(slice + 1, lines)) {
            Clock::time_point now = Clock::now();
            seconds[slice++] =
                std::chrono::duration<double>(now - from).count();
            from = now;
        }
    }

    std::vector<double>
    done()
    {
        seconds[slice] = secondsSince(from);
        return seconds;
    }

  private:
    std::size_t lines;
    Clock::time_point from;
    std::vector<double> seconds;
    std::size_t slice = 0;
};

/**
 * Latency histogram bins, so run.py can pool calls across slices and
 * passes: bin k holds [kHistLoUs * kHistRatio^k, ... ^(k+1)).
 */
constexpr double kHistLoUs = 0.01;
constexpr double kHistRatio = 1.01;

/** Non-empty bins of calls [first, last) as [[k, count], ...]. */
std::string
binCountsJson(const double *first, const double *last)
{
    std::map<long, std::uint64_t> bins;
    for (const double *v = first; v != last; ++v) {
        long k = *v <= kHistLoUs
                     ? 0L
                     : static_cast<long>(std::floor(std::log(*v / kHistLoUs) /
                                                    std::log(kHistRatio)));
        ++bins[k];
    }
    std::string out = "[";
    char buf[64];
    for (const auto &[k, n] : bins) {
        std::snprintf(buf, sizeof(buf), "%s[%ld,%" PRIu64 "]",
                      out.size() > 1 ? "," : "", k, n);
        out += buf;
    }
    return out + "]";
}

/** Bin counts of each slice of a pass's per-call latencies. */
std::string
sliceCountsJson(const std::vector<double> &us)
{
    std::string out = "[";
    for (std::size_t s = 0; s < kSlices; ++s) {
        out += s == 0 ? "" : ",";
        out += binCountsJson(us.data() + sliceBegin(s, us.size()),
                             us.data() + sliceBegin(s + 1, us.size()));
    }
    return out + "]";
}

std::string
numbersJson(const std::vector<double> &values)
{
    std::string out = "[";
    char buf[32];
    for (double v : values) {
        std::snprintf(buf, sizeof(buf), "%s%.17g", out.size() > 1 ? "," : "",
                      v);
        out += buf;
    }
    return out + "]";
}

/**
 * Runs `body` in a forked child and returns what it returned, or
 * nothing when the child failed. The child starts from a copy of this
 * process's state and ends with _exit, so it changes nothing here.
 */
std::optional<std::string>
inChild(const std::function<std::string()> &body)
{
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0)
        return std::nullopt;
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return std::nullopt;
    }
    if (pid == 0) {
        // Die with the parent, e.g. when run.py's timeout kills it.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        close(fds[0]);
        std::string out = body();
        const char *p = out.data();
        std::size_t left = out.size();
        while (left > 0) {
            ssize_t w = write(fds[1], p, left);
            if (w < 0 && errno == EINTR)
                continue;
            if (w <= 0)
                _exit(3);
            p += w;
            left -= static_cast<std::size_t>(w);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string out;
    char buf[1 << 16];
    for (;;) {
        ssize_t r = read(fds[0], buf, sizeof(buf));
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(r));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    return out;
}

/** Flat JSON object writer (numbers, strings, nested raw JSON). */
class JsonOut
{
  public:
    JsonOut &
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return raw(key, buf);
    }
    JsonOut &
    str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        quoted += '"';
        return raw(key, quoted);
    }
    JsonOut &
    flag(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    JsonOut &
    raw(const std::string &key, const std::string &json)
    {
        body += body.empty() ? "{" : ",";
        body += "\"" + key + "\":" + json;
        return *this;
    }
    std::string
    done() const
    {
        return body.empty() ? "{}" : body + "}";
    }

  private:
    std::string body;
};

/** JSON array of `items`, each rendered by `render`. */
template <typename Range, typename Render>
std::string
jsonArray(const Range &items, Render render)
{
    std::string out = "[";
    for (const auto &item : items) {
        if (out.size() > 1)
            out += ",";
        out += render(item);
    }
    return out + "]";
}

std::string
latencyStatsJson(const core::LatencyStats &l)
{
    JsonOut out;
    out.num("count", static_cast<double>(l.count))
        .num("p50", l.p50)
        .num("p95", l.p95)
        .num("p99", l.p99)
        .num("maxSeen", l.maxSeen);
    return out.done();
}

/**
 * Every field of the configs a workload runs with, collections in
 * full, so a changed default shows as a changed dump.
 */
std::string
configJson(const core::MonitorConfig &c, bool vaulted)
{
    const core::CheckerConfig &k = c.checker;
    const core::IngestConfig &i = c.ingest;
    const obs::ObsConfig &o = c.observability;
    JsonOut checker;
    checker.flag("identifierRouting", k.identifierRouting)
        .flag("routingIndex", k.routingIndex)
        .flag("tieBreakLeastDifference", k.tieBreakLeastDifference)
        .flag("equivalentGroupDedup", k.equivalentGroupDedup)
        .flag("falseDependencyRemoval", k.falseDependencyRemoval)
        .flag("timeoutSuppression", k.timeoutSuppression)
        .flag("zombieAbsorption", k.zombieAbsorption)
        .num("maxForkFanout", static_cast<double>(k.maxForkFanout))
        .num("seed", static_cast<double>(k.seed));
    JsonOut ingest;
    ingest.num("reorderWindowSeconds", i.reorderWindowSeconds)
        .num("reorderBufferCap", static_cast<double>(i.reorderBufferCap))
        .flag("clampNonMonotonic", i.clampNonMonotonic)
        .num("dedupWindowSeconds", i.dedupWindowSeconds)
        .num("maxActiveGroups", static_cast<double>(i.maxActiveGroups))
        .num("quarantineSampleCap",
             static_cast<double>(i.quarantineSampleCap))
        .num("maxResidentBytes", static_cast<double>(i.maxResidentBytes))
        .num("memoryCheckInterval",
             static_cast<double>(i.memoryCheckInterval))
        .num("maxInternerEntries",
             static_cast<double>(i.maxInternerEntries))
        .num("numShards", static_cast<double>(i.numShards))
        .num("shardRingCapacity",
             static_cast<double>(i.shardRingCapacity));
    JsonOut flight;
    flight
        .num("perNodeCapacity",
             static_cast<double>(o.flightRecorder.perNodeCapacity))
        .num("maxNodes", static_cast<double>(o.flightRecorder.maxNodes))
        .num("maxBundles",
             static_cast<double>(o.flightRecorder.maxBundles));
    JsonOut observability;
    observability.flag("metrics", o.metrics)
        .flag("tracing", o.tracing)
        .num("snapshotIntervalSeconds", o.snapshotIntervalSeconds)
        .num("maxTraceSpans", static_cast<double>(o.maxTraceSpans))
        .num("maxSnapshots", static_cast<double>(o.maxSnapshots))
        .raw("flightRecorder", flight.done());
    JsonOut perTask;
    for (const auto &[task, seconds] : c.perTaskTimeouts)
        perTask.num(task, seconds);
    std::string profiles =
        jsonArray(c.latencyProfiles, [](const core::LatencyProfile &p) {
            JsonOut out;
            out.str("task", p.task)
                .raw("edges",
                     jsonArray(p.edges,
                               [](const auto &edge) {
                                   JsonOut e;
                                   e.num("from", edge.first.first)
                                       .num("to", edge.first.second)
                                       .raw("stats",
                                            latencyStatsJson(edge.second));
                                   return e.done();
                               }))
                .raw("total", latencyStatsJson(p.total))
                .num("runs", static_cast<double>(p.runs));
            return out.done();
        });
    JsonOut latencyCheck;
    latencyCheck.num("quantile", c.latencyCheck.quantile)
        .num("factor", c.latencyCheck.factor)
        .num("slackSeconds", c.latencyCheck.slackSeconds);
    const obs::PulseConfig &p = c.pulse;
    JsonOut pulse;
    pulse.flag("enabled", p.enabled)
        .num("windowSeconds", p.windowSeconds)
        .num("ewmaAlpha", p.ewmaAlpha)
        .num("httpPort", p.httpPort)
        .str("httpBindAddress", p.httpBindAddress)
        .raw("rules", jsonArray(p.rules,
                                [](const obs::AlertRule &r) {
                                    JsonOut out;
                                    out.str("name", r.name)
                                        .str("signal",
                                             obs::pulseSignalName(r.signal))
                                        .num("threshold", r.threshold)
                                        .num("pendingSeconds",
                                             r.pendingSeconds)
                                        .num("holdSeconds", r.holdSeconds)
                                        .num("resolveRatio", r.resolveRatio)
                                        .flag("useEwma", r.useEwma);
                                    return out.done();
                                }))
        .str("alertLogPath", p.alertLogPath)
        .num("stageSampleEvery", static_cast<double>(p.stageSampleEvery));
    JsonOut profiler;
    profiler.flag("enabled", c.profiler.enabled)
        .num("hz", c.profiler.hz)
        .num("maxSamples", static_cast<double>(c.profiler.maxSamples));
    JsonOut monitor;
    monitor.num("timeoutSeconds", c.timeoutSeconds)
        .raw("perTaskTimeouts", perTask.done())
        .raw("checker", checker.done())
        .flag("numbersAsIdentifiers", c.numbersAsIdentifiers)
        .raw("ingest", ingest.done())
        .flag("verifyModelOnLoad", c.verifyModelOnLoad)
        .flag("proveFastPath", c.proveFastPath)
        .raw("observability", observability.done())
        .raw("latencyProfiles", profiles)
        .raw("latencyCheck", latencyCheck.done())
        .raw("pulse", pulse.done())
        .raw("profiler", profiler.done());
    // The directory is a fresh one per process; only its use is fixed.
    JsonOut vault;
    vault.str("directory", vaulted ? "fresh per process" : "")
        .num("checkpointEveryRecords",
             vaulted ? static_cast<double>(kCheckpointEveryRecords) : 0.0)
        .flag("killAndRestoreMidStream", vaulted);
    JsonOut all;
    all.raw("MonitorConfig", monitor.done())
        .raw("VaultConfig", vault.done())
        .raw("ObsConfig", observability.done());
    return all.done();
}

// --- spans ---------------------------------------------------------------

enum SpanName : std::uint8_t
{
    SpanWire,          ///< one feedLine-equivalent call (split pass)
    SpanDecode,        ///< logging::decodeLogLine
    SpanMonitorFeed,   ///< WorkflowMonitor::feed (or feedLine when the
                       ///< line is malformed and only feedLine counts it)
    SpanMonitorFinish, ///< WorkflowMonitor::finish
    SpanExtract,       ///< VariableExtractor::parse + TemplateCatalog::find
    SpanIntern,        ///< IdentifierInterner::intern of the identifiers
    SpanCheckerSweep,  ///< InterleavedChecker::sweepTimeouts
    SpanCheckerFeed,   ///< InterleavedChecker::feed
    SpanCheckerFinish, ///< end-of-stream sweep + InterleavedChecker::finish
    SpanWalAppend,     ///< WriteAheadLedger::appendLine
    SpanVaultFeedLine, ///< VaultedMonitor::feedLine
    SpanVaultRestore,  ///< VaultedMonitor construction over a vault
    SpanVaultFinish,   ///< VaultedMonitor::finish
    kSpanNames,
};

const char *const kSpanNameText[kSpanNames] = {
    "wire",           "logging.decode",  "monitor.feed",
    "monitor.finish", "logging.extract", "logging.intern",
    "checker.sweep",  "checker.feed",    "checker.finish",
    "vault.append",   "vault.feed_line", "vault.restore",
    "vault.finish",
};

constexpr std::uint32_t kNoParent = 0xffffffffu;

/** One recorded span; times are ns since the recorder's origin. */
struct Span
{
    std::int64_t start = 0;
    std::uint32_t duration = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t message = 0;
    std::uint8_t name = 0;
};

/** In-memory span store, written out once at the end. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::size_t reserve)
        : origin(Clock::now())
    {
        spans.reserve(reserve);
    }

    /** Open a span; returns its index for children and close(). */
    std::uint32_t
    open(SpanName name, std::uint32_t message,
         std::uint32_t parent = kNoParent)
    {
        Span span;
        span.name = name;
        span.message = message;
        span.parent = parent;
        spans.push_back(span);
        spans.back().start = nsBetween(origin, Clock::now());
        return static_cast<std::uint32_t>(spans.size() - 1);
    }

    /** Close span `index`; returns its duration in ns. */
    std::uint32_t
    close(std::uint32_t index)
    {
        std::int64_t end = nsBetween(origin, Clock::now());
        Span &span = spans[index];
        span.duration = static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(end - span.start, 0, 0xffffffffLL));
        return span.duration;
    }

    /** Sum of durations and span count of one name. */
    std::pair<double, std::uint64_t>
    total(SpanName name) const
    {
        double sum = 0.0;
        std::uint64_t count = 0;
        for (const Span &span : spans) {
            if (span.name == name) {
                sum += span.duration;
                ++count;
            }
        }
        return {sum, count};
    }

    /**
     * Binary dump: "PBSPANS1", u32 name count, names (u8 length +
     * bytes), u64 span count, then per span i64 start_ns,
     * u32 duration_ns, u32 parent (0xffffffff = none), u32 message,
     * u8 name.
     */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write("PBSPANS1", 8);
        std::uint32_t names = kSpanNames;
        out.write(reinterpret_cast<const char *>(&names), 4);
        for (const char *text : kSpanNameText) {
            auto len = static_cast<std::uint8_t>(std::strlen(text));
            out.write(reinterpret_cast<const char *>(&len), 1);
            out.write(text, len);
        }
        std::uint64_t count = spans.size();
        out.write(reinterpret_cast<const char *>(&count), 8);
        for (const Span &span : spans) {
            out.write(reinterpret_cast<const char *>(&span.start), 8);
            out.write(reinterpret_cast<const char *>(&span.duration), 4);
            out.write(reinterpret_cast<const char *>(&span.parent), 4);
            out.write(reinterpret_cast<const char *>(&span.message), 4);
            out.write(reinterpret_cast<const char *>(&span.name), 1);
        }
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point origin;
    std::vector<Span> spans;
};

// --- the benchmark -------------------------------------------------------

struct Options
{
    WorkloadKind kind = WorkloadKind::Table6;
    std::string workloadName;
    std::string mode;
    std::uint64_t seed = 1;
    int tasks = 0;
    std::string vaultDir;
    std::string traceOut;
    std::string streamCache;
    int scoreIndex = 0;
    int passes = 1;
    bool corruptDigest = false;
};

/** What a monitor-facing pass over the stream produced. */
struct PassResult
{
    double wallSeconds = 0.0;
    std::vector<double> sliceSeconds; ///< see SliceTimer
    std::vector<double> latencyUs;    ///< per feedLine call
    Digest digest;                    ///< record ids masked
    std::uint64_t allocs = 0;
    std::int64_t heapPeak = 0;
    double restoreMs = 0.0;
    double finishMs = 0.0;
    std::uint64_t replayed = 0;
    std::size_t problemCalls = 0;
};

class Bench
{
  public:
    explicit Bench(Options options_)
        : options(std::move(options_)),
          config(monitorConfigFor(options.kind))
    {
    }

    int run();

  private:
    Options options;
    core::MonitorConfig config;
    core::ModelBundle models;
    std::vector<SetupTimes> setupSamples;
    Stream stream;
    JsonOut result;
    bool gatesOk = true;

    bool vaulted() const { return options.kind == WorkloadKind::VaultAdverse; }

    vault::VaultConfig
    vaultConfig(const std::string &dir) const
    {
        vault::VaultConfig v;
        v.directory = dir;
        v.checkpointEveryRecords = kCheckpointEveryRecords;
        return v;
    }

    std::unique_ptr<core::WorkflowMonitor>
    makeMonitor(const core::MonitorConfig &c) const
    {
        return std::make_unique<core::WorkflowMonitor>(
            c, models.catalog, models.automata);
    }

    std::unique_ptr<vault::VaultedMonitor>
    makeVaulted(const std::string &dir) const
    {
        return std::make_unique<vault::VaultedMonitor>(
            vaultConfig(dir), config, models.catalog, models.automata);
    }

    void gate(const char *name, const std::string &got,
              const std::string &want);
    void measureSetup();
    void warmUp();
    PassResult wirePass(core::WorkflowMonitor &monitor, bool count);
    PassResult vaultedPass(std::unique_ptr<vault::VaultedMonitor> first,
                           const std::string &dir, bool count,
                           SpanRecorder *spans);
    std::string timedPass(int index);
    Digest recordPass(const Stream &input, bool restore_ids,
                      std::vector<core::MonitorReport> *kept);
    std::size_t exactlyAccepted(
        const Stream &input,
        const std::vector<core::MonitorReport> &reports) const;
    void timeMode();
    void checkMode();
    void scoreMode();
    void traceMode();
    void vtraceMode();
};

void
Bench::gate(const char *name, const std::string &got,
            const std::string &want)
{
    bool ok = got == want;
    std::fprintf(stderr, "perfbench: gate %-22s %s (%s vs %s)\n", name,
                 ok ? "ok" : "MISMATCH", got.c_str(), want.c_str());
    if (!ok)
        gatesOk = false;
}

/**
 * setup_s samples: each of kSetupRounds forked children pays what a
 * fresh process pays before its first line (mining, the model file
 * round trip, building the workload's monitor). Runs before anything
 * else, so every child starts from an untouched heap and interner.
 */
void
Bench::measureSetup()
{
    const std::string dir = options.vaultDir + "/setup";
    for (int round = 0; round < kSetupRounds; ++round) {
        std::optional<std::string> out = inChild([&] {
            SetupTimes times;
            models = mineAndLoad(times);
            std::filesystem::remove_all(dir);
            std::unique_ptr<core::WorkflowMonitor> bare;
            std::unique_ptr<vault::VaultedMonitor> durable;
            Clock::time_point t0 = Clock::now();
            if (vaulted())
                durable = makeVaulted(dir);
            else
                bare = makeMonitor(config);
            times.ctorMs = secondsSince(t0) * 1e3;
            durable.reset();
            std::filesystem::remove_all(dir);
            return numbersJson(
                {times.mineSeconds, times.modelIoMs, times.ctorMs});
        });
        std::vector<double> got(3, 0.0);
        if (!out || std::sscanf(out->c_str(), "[%lf,%lf,%lf]", &got[0],
                                &got[1], &got[2]) != 3) {
            std::fprintf(stderr, "perfbench: setup round failed\n");
            gatesOk = false;
            continue;
        }
        setupSamples.push_back({got[0], got[1], got[2]});
    }
}

/** Untimed: same config and shape, another seed, throwaway monitor. */
void
Bench::warmUp()
{
    Stream warm = makeStream(options.kind, shapeFor(options.kind).warmTasks,
                             options.seed ^ 0x9e3779b97f4a7c15ULL, true);
    if (vaulted()) {
        std::string dir = options.vaultDir + "/warmup";
        std::filesystem::remove_all(dir);
        auto monitor = makeVaulted(dir);
        for (const std::string &line : warm.lines)
            monitor->feedLine(line);
        monitor->finish();
        monitor.reset();
        std::filesystem::remove_all(dir);
    } else {
        auto monitor = makeMonitor(config);
        for (const std::string &line : warm.lines)
            monitor->feedLine(line);
        monitor->finish();
    }
}

/** The real wire path: WorkflowMonitor::feedLine per line, + finish. */
PassResult
Bench::wirePass(core::WorkflowMonitor &monitor, bool count)
{
    PassResult out;
    out.latencyUs.resize(stream.lines.size());
    resetAllocCounter();
    Clock::time_point start = Clock::now();
    SliceTimer slices(stream.lines.size(), start);
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        slices.at(i);
        // The reports die inside the counting scope, so the bytes they
        // hold leave the live count again.
        CountAllocs scope(count);
        Clock::time_point a = Clock::now();
        std::vector<core::MonitorReport> reports =
            monitor.feedLine(stream.lines[i]);
        Clock::time_point b = Clock::now();
        out.latencyUs[i] = static_cast<double>(nsBetween(a, b)) / 1e3;
        if (!reports.empty()) {
            out.problemCalls += isProblem(reports) ? 1 : 0;
            out.digest.add(reports, true);
        }
    }
    {
        CountAllocs scope(count);
        Clock::time_point finishStart = Clock::now();
        std::vector<core::MonitorReport> tail = monitor.finish();
        out.finishMs = secondsSince(finishStart) * 1e3;
        out.digest.add(tail, true);
    }
    out.sliceSeconds = slices.done();
    out.wallSeconds = secondsSince(start);
    out.allocs = allocCalls;
    out.heapPeak = peakBytes;
    return out;
}

/**
 * vault_adverse's path: VaultedMonitor::feedLine per line with one
 * kill (destroy without finish) and restore (construct over the same
 * directory) at the stream's midpoint. Replayed reports duplicate
 * reports already emitted before the kill, so they are not digested.
 */
PassResult
Bench::vaultedPass(std::unique_ptr<vault::VaultedMonitor> monitor,
                   const std::string &dir, bool count, SpanRecorder *spans)
{
    PassResult out;
    out.latencyUs.resize(stream.lines.size());
    const std::size_t kill_at = stream.lines.size() / 2;
    std::vector<double> checkpointMs;
    std::vector<double> checkpointBytes;
    // Inputs since the monitor was built: the vault checkpoints on every
    // kCheckpointEveryRecords-th one, so those calls carry a checkpoint.
    // stats() stats the ledger file, so it is read only on those calls.
    std::uint64_t sinceBuilt = 0;
    std::uint64_t checkpointsSeen = 0;
    auto readCheckpoints = [&] {
        if (spans != nullptr)
            checkpointsSeen = monitor->stats().checkpointsTaken;
    };
    readCheckpoints();
    resetAllocCounter();
    Clock::time_point start = Clock::now();
    SliceTimer slices(stream.lines.size(), start);
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        slices.at(i);
        if (i == kill_at) {
            std::uint32_t span = spans == nullptr
                                     ? 0
                                     : spans->open(SpanVaultRestore,
                                                   static_cast<std::uint32_t>(i));
            Clock::time_point a = Clock::now();
            {
                CountAllocs scope(count);
                monitor.reset();
                monitor = makeVaulted(dir);
            }
            out.restoreMs = secondsSince(a) * 1e3;
            if (spans != nullptr)
                spans->close(span);
            out.replayed = monitor->recovery().replayedInputs;
            if (!monitor->recovery().recovered ||
                !monitor->recovery().error.empty()) {
                std::fprintf(stderr, "perfbench: restore failed: %s\n",
                             monitor->recovery().error.c_str());
                gatesOk = false;
            }
            sinceBuilt = 0;
            readCheckpoints();
        }
        std::uint32_t span =
            spans == nullptr
                ? 0
                : spans->open(SpanVaultFeedLine, static_cast<std::uint32_t>(i));
        CountAllocs scope(count);
        Clock::time_point a = Clock::now();
        std::vector<core::MonitorReport> reports =
            monitor->feedLine(stream.lines[i]);
        Clock::time_point b = Clock::now();
        out.latencyUs[i] = static_cast<double>(nsBetween(a, b)) / 1e3;
        ++sinceBuilt;
        if (spans != nullptr) {
            spans->close(span);
            if (sinceBuilt % kCheckpointEveryRecords == 0) {
                vault::VaultStats stats = monitor->stats();
                if (stats.checkpointsTaken != checkpointsSeen + 1) {
                    std::fprintf(stderr, "perfbench: checkpoint cadence "
                                         "differs from the config\n");
                }
                checkpointsSeen = stats.checkpointsTaken;
                checkpointMs.push_back(out.latencyUs[i] / 1e3);
                checkpointBytes.push_back(
                    static_cast<double>(stats.lastCheckpointBytes));
            }
        }
        if (!reports.empty()) {
            out.problemCalls += isProblem(reports) ? 1 : 0;
            out.digest.add(reports, true);
        }
    }
    std::uint32_t span =
        spans == nullptr ? 0 : spans->open(SpanVaultFinish, 0);
    {
        CountAllocs scope(count);
        Clock::time_point finishStart = Clock::now();
        std::vector<core::MonitorReport> tail = monitor->finish();
        out.finishMs = secondsSince(finishStart) * 1e3;
        out.digest.add(tail, true);
    }
    if (spans != nullptr)
        spans->close(span);
    out.sliceSeconds = slices.done();
    out.wallSeconds = secondsSince(start);
    out.allocs = allocCalls;
    out.heapPeak = peakBytes;
    if (spans != nullptr) {
        const obs::FlightRecorder *flight =
            monitor->monitor().flightRecorder();
        result.num("vault.checkpoint_ms", quantile(checkpointMs, 0.5))
            .num("vault.checkpoint_bytes", quantile(checkpointBytes, 0.5))
            .num("obs.bundles",
                 flight == nullptr
                     ? 0.0
                     : static_cast<double>(flight->bundles().size() +
                                           flight->droppedBundles()));
    }
    return out;
}

/**
 * The record path: decode outside the monitor and call feed();
 * undecodable lines go through feedLine so the quarantine sees them,
 * as on the wire path. With `restore_ids` the record id the wire drops
 * is put back so reports can be scored against ground truth. The
 * checker's random pick among equivalent groups hashes the record id,
 * so only the pass without restored ids must match feedLine exactly.
 */
Digest
Bench::recordPass(const Stream &input, bool restore_ids,
                  std::vector<core::MonitorReport> *kept)
{
    auto monitor = makeMonitor(config);
    Digest digest;
    auto take = [&](std::vector<core::MonitorReport> reports) {
        digest.add(reports, true);
        if (kept != nullptr) {
            for (core::MonitorReport &report : reports)
                kept->push_back(std::move(report));
        }
    };
    for (std::size_t i = 0; i < input.lines.size(); ++i) {
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(input.lines[i]);
        if (record) {
            if (restore_ids)
                record->id = input.records[i].id;
            take(monitor->feed(*record));
        } else {
            take(monitor->feedLine(input.lines[i]));
        }
    }
    take(monitor->finish());
    return digest;
}

/**
 * Emitting ground-truth executions that some Accepted report claims
 * exactly: every record of the report from that one execution, under
 * that execution's task name.
 */
std::size_t
Bench::exactlyAccepted(const Stream &input,
                       const std::vector<core::MonitorReport> &reports) const
{
    std::map<logging::RecordId, const logging::LogRecord *> byId;
    for (const logging::LogRecord &record : input.records)
        byId.emplace(record.id, &record);
    std::set<logging::ExecutionId> accepted;
    for (const core::MonitorReport &report : reports) {
        const core::CheckEvent &e = report.event;
        if (e.kind != core::CheckEventKind::Accepted || e.records.empty())
            continue;
        logging::ExecutionId exec = 0;
        bool exact = true;
        for (logging::RecordId id : e.records) {
            auto it = byId.find(id);
            if (it == byId.end() || it->second->truthExecution == 0 ||
                it->second->truthTask != e.taskName ||
                (exec != 0 && it->second->truthExecution != exec)) {
                exact = false;
                break;
            }
            exec = it->second->truthExecution;
        }
        if (exact)
            accepted.insert(exec);
    }
    return accepted.size();
}

/** One timed pass's figures (a forked child's whole output). */
std::string
passJson(const PassResult &pass)
{
    const double lines = static_cast<double>(pass.latencyUs.size());
    JsonOut out;
    out.num("lines", lines)
        .num("wall_s", pass.wallSeconds)
        .num("msgs_per_s", lines / pass.wallSeconds)
        .num("feed_p50_us", quantile(pass.latencyUs, 0.50))
        .num("feed_p99_us", quantile(pass.latencyUs, 0.99))
        .raw("slice_s", numbersJson(pass.sliceSeconds))
        .raw("slice_counts", sliceCountsJson(pass.latencyUs))
        .num("problem_calls", static_cast<double>(pass.problemCalls))
        .num("restore_ms", pass.restoreMs)
        .num("finish_ms", pass.finishMs)
        .num("replayed_lines", static_cast<double>(pass.replayed))
        .str("digest", pass.digest.hex());
    return out.done();
}

/** Pass `index` of --mode time, on a monitor of its own. */
std::string
Bench::timedPass(int index)
{
    if (!vaulted()) {
        auto monitor = makeMonitor(config);
        return passJson(wirePass(*monitor, false));
    }
    const std::string dir =
        options.vaultDir + "/pass-" + std::to_string(index);
    std::filesystem::remove_all(dir);
    PassResult pass = vaultedPass(makeVaulted(dir), dir, false, nullptr);
    std::filesystem::remove_all(dir);
    return passJson(pass);
}

/**
 * --mode time: warm up once, then each pass in a child forked from the
 * warmed-up process, so every pass is a first pass over the stream.
 */
void
Bench::timeMode()
{
    warmUp();
    std::string passes = "[";
    for (int index = 0; index < options.passes; ++index) {
        std::optional<std::string> out =
            inChild([&] { return timedPass(index); });
        if (!out) {
            std::fprintf(stderr, "perfbench: pass %d failed\n", index);
            gatesOk = false;
            continue;
        }
        passes += (passes.size() > 1 ? "," : "") + *out;
    }
    result.num("lines", static_cast<double>(stream.lines.size()) *
                            options.passes)
        .num("hist_lo_us", kHistLoUs)
        .num("hist_ratio", kHistRatio)
        .raw("passes", passes + "]");
}

/** --mode check: one pass with the allocation counter on, then gates. */
void
Bench::checkMode()
{
    const std::string live = options.vaultDir + "/live";
    std::unique_ptr<core::WorkflowMonitor> monitor;
    std::unique_ptr<vault::VaultedMonitor> vaultedMonitor;
    if (vaulted()) {
        std::filesystem::remove_all(live);
        vaultedMonitor = makeVaulted(live);
    } else {
        monitor = makeMonitor(config);
    }

    warmUp();

    const bool count = true;
    PassResult pass = vaulted()
                          ? vaultedPass(std::move(vaultedMonitor), live,
                                        count, nullptr)
                          : wirePass(*monitor, count);
    const double lines = static_cast<double>(stream.lines.size());
    result.num("lines", lines)
        .num("problem_calls", static_cast<double>(pass.problemCalls))
        .str("digest", pass.digest.hex());

    result.num("allocs_per_msg", static_cast<double>(pass.allocs) / lines)
        .num("heap_peak_mb", static_cast<double>(pass.heapPeak) / 1e6);

    // Gate: the vaulted run across its kill-and-restore equals an
    // uninterrupted, unvaulted monitor with the same config.
    Digest wire = pass.digest;
    if (vaulted()) {
        auto reference = makeMonitor(config);
        wire = wirePass(*reference, false).digest;
        std::string got = pass.digest.hex();
        if (options.corruptDigest)
            got[0] = got[0] == '0' ? '1' : '0';
        gate("vault_restore", got, wire.hex());
    }

    // Gate: feedLine's reports equal decodeLogLine + feed's.
    std::string got = wire.hex();
    if (options.corruptDigest && !vaulted())
        got[0] = got[0] == '0' ? '1' : '0';
    gate("feedLine_vs_feed", got, recordPass(stream, false, nullptr).hex());
}

/**
 * --mode score: the record path with ground-truth record ids over one
 * stream of the seed (index 0 is the timed stream itself). run.py pools
 * several, since the share of misses varies from stream to stream.
 */
void
Bench::scoreMode()
{
    std::vector<core::MonitorReport> kept;
    recordPass(stream, true, &kept);
    result.num("lines", static_cast<double>(stream.lines.size()))
        .num("executions", static_cast<double>(stream.emittingExecutions))
        .num("exactly_accepted",
             static_cast<double>(exactlyAccepted(stream, kept)));
}

/** --mode trace: the split real path, then single-layer passes. */
void
Bench::traceMode()
{
    // The bare-config monitor is the split pass's subject on table6
    // and inflight1k; vault_adverse splits its unvaulted hardened
    // monitor (the VaultedMonitor has no seam inside feedLine).
    auto monitor = makeMonitor(config);
    warmUp();

    const std::size_t n = stream.lines.size();
    SpanRecorder spans(n * 8 + 16);
    // 1. Split real path: feedLine = decodeLogLine + feed.
    Digest split;
    std::vector<double> problemUs;
    Clock::time_point splitStart = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        auto msg = static_cast<std::uint32_t>(i);
        std::uint32_t wire = spans.open(SpanWire, msg);
        std::uint32_t decode = spans.open(SpanDecode, msg, wire);
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(stream.lines[i]);
        spans.close(decode);
        std::uint32_t feed = spans.open(SpanMonitorFeed, msg, wire);
        std::vector<core::MonitorReport> reports =
            record ? monitor->feed(*record)
                   : monitor->feedLine(stream.lines[i]);
        std::uint32_t feedNs = spans.close(feed);
        spans.close(wire);
        if (!reports.empty()) {
            if (isProblem(reports))
                problemUs.push_back(feedNs / 1e3);
            split.add(reports, true);
        }
    }
    std::uint32_t fin = spans.open(SpanMonitorFinish, 0);
    split.add(monitor->finish(), true);
    spans.close(fin);
    const double splitSeconds = secondsSince(splitStart);
    const core::IngestStats ingest = monitor->ingestStats();
    monitor.reset();

    // 2. Logging layer: extraction + template lookup, then interning
    //    into a private interner so every identifier is fresh, as on
    //    the real path. Decode is untimed here (timed in pass 1).
    logging::VariableExtractor extractor;
    std::vector<logging::LogRecord> decoded(n);
    std::vector<char> decodedOk(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (auto record = logging::decodeLogLine(stream.lines[i])) {
            decoded[i] = std::move(*record);
            decodedOk[i] = 1;
        }
    }
    auto loggingPass = [&](logging::IdentifierInterner &interner,
                           SpanRecorder *rec) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!decodedOk[i])
                continue;
            auto msg = static_cast<std::uint32_t>(i);
            std::uint32_t ex = rec ? rec->open(SpanExtract, msg) : 0;
            logging::ParsedBody parsed = extractor.parse(decoded[i].body);
            logging::TemplateId tpl =
                models.catalog->find(decoded[i].service, parsed.templateText);
            if (rec)
                rec->close(ex);
            std::uint32_t in = rec ? rec->open(SpanIntern, msg) : 0;
            std::size_t tokens = 0;
            for (const logging::Variable &var : parsed.variables) {
                if (var.kind == logging::VariableKind::Number &&
                    !config.numbersAsIdentifiers)
                    continue;
                tokens += interner.intern(var.text);
            }
            if (rec)
                rec->close(in);
            sink = tokens + tpl;
        }
    };
    logging::IdentifierInterner timedInterner;
    loggingPass(timedInterner, &spans);
    std::size_t loggingAllocs = 0;
    {
        logging::IdentifierInterner countedInterner;
        resetAllocCounter();
        CountAllocs scope(true);
        for (std::size_t i = 0; i < n; ++i) {
            if (auto record = logging::decodeLogLine(stream.lines[i]))
                sink = record->body.size();
        }
        loggingPass(countedInterner, nullptr);
        loggingAllocs = allocCalls;
    }

    // 3. Checker layer: an InterleavedChecker fed the extractor's
    //    CheckMessages exactly as the bare monitor delivers them
    //    (sweep at the monitor clock, then feed), tokens from the
    //    process interner the monitor used.
    std::vector<core::CheckMessage> messages;
    messages.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!decodedOk[i])
            continue;
        const logging::LogRecord &record = decoded[i];
        logging::ParsedBody parsed = extractor.parse(record.body);
        core::CheckMessage message;
        message.tpl = models.catalog->find(record.service, parsed.templateText);
        for (const logging::Variable &var : parsed.variables) {
            if (var.kind == logging::VariableKind::Number &&
                !config.numbersAsIdentifiers)
                continue;
            logging::IdToken token =
                logging::IdentifierInterner::process().intern(var.text);
            if (token != logging::kInvalidIdToken)
                message.identifiers.push_back(token);
        }
        message.level = record.level;
        message.record = record.id;
        message.time = record.timestamp;
        messages.push_back(std::move(message));
    }
    decoded.clear();
    decoded.shrink_to_fit();

    std::vector<const core::TaskAutomaton *> automata;
    for (const core::TaskAutomaton &automaton : models.automata)
        automata.push_back(&automaton);
    std::vector<char> certified;
    if (config.proveFastPath) {
        analysis::InterferenceOptions prove;
        prove.maxForkFanout = static_cast<int>(config.checker.maxForkFanout);
        prove.numbersAsIdentifiers = config.numbersAsIdentifiers;
        certified = analysis::analyzeInterference(models.automata,
                                                  *models.catalog, prove)
                        .certificate.certifiedBits(models.catalog->size());
    }
    core::TimeoutPolicy policy;
    policy.defaultTimeout = config.timeoutSeconds;
    policy.perTask = config.perTaskTimeouts;
    auto resolver = [&policy](const std::vector<std::string> &tasks) {
        return policy.timeoutForCandidates(tasks);
    };
    double maxTimeout = config.timeoutSeconds;
    for (const auto &[task, value] : policy.perTask)
        maxTimeout = std::max(maxTimeout, value);

    struct CheckerRun
    {
        Digest digest;
        core::CheckerStats stats;
        std::size_t groupsPeak = 0;
        double groupsSum = 0.0;
        std::size_t idsetsPeak = 0;
    };
    auto checkerPass = [&](SpanRecorder *rec) {
        CheckerRun out;
        core::InterleavedChecker checker(config.checker, automata);
        if (!certified.empty())
            checker.setCertifiedTemplates(certified);
        common::SimTime clock = 0.0;
        for (const core::CheckMessage &message : messages) {
            auto msg = static_cast<std::uint32_t>(&message - messages.data());
            clock = std::max(clock, message.time);
            std::uint32_t sw = rec ? rec->open(SpanCheckerSweep, msg) : 0;
            std::vector<core::CheckEvent> swept =
                checker.sweepTimeouts(clock, resolver);
            if (rec)
                rec->close(sw);
            std::uint32_t fe = rec ? rec->open(SpanCheckerFeed, msg) : 0;
            std::vector<core::CheckEvent> fed = checker.feed(message);
            if (rec)
                rec->close(fe);
            for (const core::CheckEvent &e : swept)
                out.digest.add(e, false, true);
            for (const core::CheckEvent &e : fed)
                out.digest.add(e, false, true);
            out.groupsPeak = std::max(out.groupsPeak, checker.activeGroups());
            out.groupsSum += static_cast<double>(checker.activeGroups());
            out.idsetsPeak =
                std::max(out.idsetsPeak, checker.activeIdentifierSets());
        }
        std::uint32_t fi = rec ? rec->open(SpanCheckerFinish, 0) : 0;
        common::SimTime horizon = clock + maxTimeout * 1.001;
        std::vector<core::CheckEvent> swept =
            messages.empty() ? std::vector<core::CheckEvent>{}
                             : checker.sweepTimeouts(horizon, resolver);
        std::vector<core::CheckEvent> finished =
            messages.empty() ? std::vector<core::CheckEvent>{}
                             : checker.finish(horizon);
        if (rec)
            rec->close(fi);
        for (const core::CheckEvent &e : swept)
            out.digest.add(e, true, true);
        for (const core::CheckEvent &e : finished)
            out.digest.add(e, true, true);
        out.stats = checker.stats();
        return out;
    };
    CheckerRun checked = checkerPass(&spans);
    std::size_t checkerAllocs = 0;
    {
        resetAllocCounter();
        CheckerRun counted;
        {
            CountAllocs scope(true);
            counted = checkerPass(nullptr);
        }
        checkerAllocs = allocCalls;
        gate("checker_repeat", counted.digest.hex(), checked.digest.hex());
    }

    // Gate: the checker pass does the monitor's checking work. On the
    // bare workloads that monitor is pass 1's; vault_adverse's guards
    // reorder and drop messages, so its checker pass is compared with
    // a bare monitor over the same lines.
    std::string want = split.hex();
    if (vaulted()) {
        core::MonitorConfig bare;
        auto reference = makeMonitor(bare);
        Digest ref;
        for (const std::string &line : stream.lines)
            ref.add(reference->feedLine(line), true);
        ref.add(reference->finish(), true);
        want = ref.hex();
    }
    std::string got = checked.digest.hex();
    if (options.corruptDigest)
        got[0] = got[0] == '0' ? '1' : '0';
    gate("checker_vs_monitor", got, want);

    // 4. Vault layer: the write-ahead ledger's append of every line.
    double walBytes = 0.0;
    {
        std::string dir = options.vaultDir + "/wal";
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        vault::WriteAheadLedger ledger(vault::ledgerPath(dir));
        if (!ledger.open()) {
            std::fprintf(stderr, "perfbench: cannot open ledger\n");
            gatesOk = false;
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t ap =
                spans.open(SpanWalAppend, static_cast<std::uint32_t>(i));
            ledger.appendLine(i + 1, stream.lines[i]);
            spans.close(ap);
        }
        ledger.flush();
        walBytes = static_cast<double>(ledger.bytes());
    }
    std::filesystem::remove_all(options.vaultDir + "/wal");

    // Aggregate from the spans.
    const double lines = static_cast<double>(n);
    const double msgs = static_cast<double>(messages.size());
    auto perLine = [&](SpanName name) {
        return spans.total(name).first / std::max(1.0, lines);
    };
    auto perMsg = [&](SpanName name) {
        return spans.total(name).first / std::max(1.0, msgs);
    };
    const double feedNs = perLine(SpanMonitorFeed);
    const double extractNs = perLine(SpanExtract);
    const double internNs = perLine(SpanIntern);
    const double sweepNs = perLine(SpanCheckerSweep);
    const double checkerFeedNs = perLine(SpanCheckerFeed);
    result.num("lines", lines)
        .num("traced_msgs_per_s", lines / splitSeconds)
        .num("logging.decode_ns", perLine(SpanDecode))
        .num("logging.extract_ns", extractNs)
        .num("logging.intern_ns", internNs)
        .num("logging.allocs_per_line",
             static_cast<double>(loggingAllocs) / std::max(1.0, lines))
        .num("logging.interner_entries",
             static_cast<double>(timedInterner.size()))
        .num("logging.malformed_lines",
             static_cast<double>(ingest.malformed()))
        .num("monitor.feed_ns", feedNs)
        .num("monitor.guard_ns",
             feedNs - extractNs - internNs - sweepNs - checkerFeedNs)
        .num("monitor.problem_call_us", quantile(problemUs, 0.5))
        .num("monitor.reorder_peak",
             static_cast<double>(ingest.reorderBufferPeak))
        .num("monitor.duplicates_suppressed",
             static_cast<double>(ingest.duplicatesSuppressed))
        .num("monitor.clamped", static_cast<double>(ingest.nonMonotonicClamped))
        .num("monitor.groups_shed", static_cast<double>(ingest.groupsShed))
        .num("checker.sweep_ns", perMsg(SpanCheckerSweep))
        .num("checker.feed_ns", perMsg(SpanCheckerFeed))
        .num("checker.allocs_per_msg",
             static_cast<double>(checkerAllocs) / std::max(1.0, msgs))
        .num("checker.groups_peak", static_cast<double>(checked.groupsPeak))
        .num("checker.groups_mean", checked.groupsSum / std::max(1.0, msgs))
        .num("checker.idsets_peak", static_cast<double>(checked.idsetsPeak))
        .num("checker.probes_per_msg",
             static_cast<double>(checked.stats.consumeAttempts) /
                 std::max(1.0, static_cast<double>(checked.stats.messages)))
        .num("checker.decisive_share", checked.stats.decisiveFraction())
        .num("vault.append_ns", perLine(SpanWalAppend))
        .num("vault.wal_bytes_per_line", walBytes / std::max(1.0, lines))
        .str("digest", split.hex());
    if (!options.traceOut.empty() && !spans.write(options.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     options.traceOut.c_str());
    }
}

/** --mode vtrace: vault_adverse's vaulted pass with spans. */
void
Bench::vtraceMode()
{
    const std::string live = options.vaultDir + "/live";
    std::filesystem::remove_all(live);
    auto first = makeVaulted(live);
    warmUp();
    SpanRecorder spans(stream.lines.size() + 16);
    PassResult pass = vaultedPass(std::move(first), live, false, &spans);
    const double lines = static_cast<double>(stream.lines.size());
    result.num("lines", lines)
        .num("traced_msgs_per_s", lines / pass.wallSeconds)
        .num("vault.restore_ms", pass.restoreMs)
        .num("vault.replayed_lines", static_cast<double>(pass.replayed))
        .str("digest", pass.digest.hex());
    if (!options.traceOut.empty() && !spans.write(options.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     options.traceOut.c_str());
    }
}

int
Bench::run()
{
    if (options.mode == "vtrace" && !vaulted()) {
        std::fprintf(stderr, "perfbench: vtrace is vault_adverse only\n");
        return 2;
    }
    std::filesystem::create_directories(options.vaultDir);
    if (options.mode != "score")
        measureSetup();
    Clock::time_point genStart = Clock::now();
    const std::uint64_t streamSeed =
        options.mode == "score" && options.scoreIndex > 0
            ? options.seed * 1000003ULL + options.scoreIndex
            : options.seed;
    std::optional<std::vector<std::string>> cached;
    const bool useCache =
        options.mode != "score" && !options.streamCache.empty();
    if (useCache && std::filesystem::exists(options.streamCache)) {
        cached = readLines(options.streamCache);
        if (!cached) {
            std::fprintf(stderr, "perfbench: bad stream cache %s\n",
                         options.streamCache.c_str());
            return 2;
        }
        stream.lines = std::move(*cached);
    } else {
        stream = makeStream(options.kind, options.tasks, streamSeed, false);
        if (useCache && !writeLines(options.streamCache, stream.lines)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         options.streamCache.c_str());
            return 2;
        }
    }
    const double generateSeconds = secondsSince(genStart);

    SetupTimes untimed;
    models = mineAndLoad(untimed);

    if (options.mode == "time")
        timeMode();
    else if (options.mode == "check")
        checkMode();
    else if (options.mode == "score")
        scoreMode();
    else if (options.mode == "trace")
        traceMode();
    else
        vtraceMode();
    std::filesystem::remove_all(options.vaultDir);

    result.str("mode", options.mode)
        .str("workload", options.workloadName)
        .num("seed", static_cast<double>(options.seed))
        .num("tasks_per_user", options.tasks)
        .num("generate_s", generateSeconds)
        .raw("setup_samples",
             jsonArray(setupSamples,
                       [](const SetupTimes &t) {
                           return numbersJson(
                               {t.mineSeconds, t.modelIoMs, t.ctorMs});
                       }))
        .flag("gates_ok", gatesOk)
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .raw("config", configJson(config, vaulted()));
    std::printf("%s\n", result.done().c_str());
    return gatesOk ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload table6|inflight1k|vault_adverse "
                 "--mode time|check|score|trace|vtrace --seed N --lines N "
                 "--vault-dir DIR [--stream-cache FILE] [--passes N] "
                 "[--score-index N] "
                 "[--trace-out FILE] "
                 "[--corrupt-digest]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    double lines = 0.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool more = i + 1 < argc;
        if (arg == "--workload" && more) {
            options.workloadName = argv[++i];
        } else if (arg == "--mode" && more) {
            options.mode = argv[++i];
        } else if (arg == "--seed" && more) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--lines" && more) {
            lines = std::atof(argv[++i]);
        } else if (arg == "--vault-dir" && more) {
            options.vaultDir = argv[++i];
        } else if (arg == "--stream-cache" && more) {
            options.streamCache = argv[++i];
        } else if (arg == "--trace-out" && more) {
            options.traceOut = argv[++i];
        } else if (arg == "--passes" && more) {
            options.passes = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--score-index" && more) {
            options.scoreIndex = std::max(0, std::atoi(argv[++i]));
        } else if (arg == "--corrupt-digest") {
            options.corruptDigest = true;
        } else {
            return usage(argv[0]);
        }
    }
    std::optional<WorkloadKind> kind = parseWorkload(options.workloadName);
    bool modeOk = options.mode == "time" || options.mode == "check" ||
                  options.mode == "score" ||
                  options.mode == "trace" || options.mode == "vtrace";
    if (!kind || !modeOk || !(lines > 0.0) || options.vaultDir.empty())
        return usage(argv[0]);
    options.kind = *kind;
    // Requested stream length -> tasks per user (trafficFor rounds it
    // up to an even count of at least 2).
    const double perTaskRound =
        trafficFor(*kind, 2, 0, false).users * shapeFor(*kind).linesPerTask;
    const int tasks = static_cast<int>(std::lround(lines / perTaskRound));
    options.tasks = std::max(2, tasks + tasks % 2);
    return Bench(options).run();
}
