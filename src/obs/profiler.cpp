#include "obs/profiler.hpp"

#include "common/stackcapture.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <sstream>
#include <thread>

#include <cxxabi.h>
#include <dlfcn.h>
#include <signal.h>
#include <time.h>

namespace cloudseer::obs {

namespace detail {
thread_local volatile std::uint32_t tlsStageWord = 0;
} // namespace detail

namespace {

constexpr const char *kStageNames[kProfStageCount] = {
    "untagged", "sink",    "parse",      "route",
    "check",    "verdict", "wal_append",
};

/** The running profiler the SIGPROF handler delivers samples to.
 *  Acquire/release paired with start()/stop() publication. */
std::atomic<Profiler *> gActiveProfiler{nullptr};

/** The signal trampoline's address (libc's __restore_rt), learned
 *  from the handler's own return address: the kernel pushes it as
 *  the frame the handler returns to, so it shows up in every stack
 *  walked from the handler's frame (the fallback when the interrupted
 *  context yields no frame chain) — usually unnamed (libc keeps it
 *  private), so collect() strips it by address rather than by
 *  symbol. */
std::atomic<std::uintptr_t> gSigTrampoline{0};

extern "C" void
profilerSignalHandler(int, siginfo_t *, void *ucontext)
{
    // The handler may interrupt code mid-errno-check; everything
    // below is async-signal-safe (atomics, bounded stack walk, plain
    // stores into a preallocated ring).
    int saved_errno = errno;
    gSigTrampoline.store(reinterpret_cast<std::uintptr_t>(
                             __builtin_extract_return_addr(
                                 __builtin_return_address(0))),
                         std::memory_order_relaxed);
    Profiler *profiler =
        gActiveProfiler.load(std::memory_order_acquire);
    if (profiler != nullptr)
        profiler->recordSample(ucontext);
    errno = saved_errno;
}

#if defined(CLOUDSEER_PROFILE_ALLOC)
struct AllocCell
{
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> count{0};
};
AllocCell gAllocCells[kProfStageCount];
std::atomic<bool> gAllocTracking{false};
#endif

/** Best-effort symbol for a return address: demangled function name
 *  via dladdr, else "module+0xoff", else the raw address. */
std::string
symbolize(void *addr)
{
    Dl_info info;
    std::memset(&info, 0, sizeof(info));
    if (dladdr(addr, &info) != 0) {
        if (info.dli_sname != nullptr) {
            int status = -1;
            char *demangled = abi::__cxa_demangle(info.dli_sname,
                                                  nullptr, nullptr,
                                                  &status);
            std::string name = status == 0 && demangled != nullptr
                                   ? demangled
                                   : info.dli_sname;
            std::free(demangled);
            return name;
        }
        if (info.dli_fname != nullptr) {
            const char *base = std::strrchr(info.dli_fname, '/');
            base = base != nullptr ? base + 1 : info.dli_fname;
            char buf[256];
            std::snprintf(
                buf, sizeof(buf), "%s+0x%llx", base,
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(addr) -
                    reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
            return buf;
        }
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(
                      reinterpret_cast<std::uintptr_t>(addr)));
    return buf;
}

/** Frames belonging to the sampling machinery itself — stripped from
 *  the leaf end of every stack so flamegraphs show the interrupted
 *  code, not the profiler. */
bool
isProfilerFrame(const std::string &symbol)
{
    static const char *kInternal[] = {
        "captureStack",     "walkFramePointers", "recordSample",
        "profilerSignalHandler", "__restore_rt",  "backtrace",
        "captureInterruptedStack",
    };
    for (const char *needle : kInternal)
        if (symbol.find(needle) != std::string::npos)
            return true;
    return false;
}

/** Folded-format frame sanitiser: flamegraph.pl splits on ';' and the
 *  final space, so neither may appear inside a frame name. */
std::string
foldedFrame(const std::string &symbol)
{
    std::string out = symbol;
    for (char &c : out) {
        if (c == ';')
            c = ':';
        else if (c == ' ')
            c = '_';
    }
    return out;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonUnescape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\' || i + 1 >= text.size()) {
            out += text[i];
            continue;
        }
        char next = text[++i];
        switch (next) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u':
            if (i + 4 < text.size()) {
                out += static_cast<char>(
                    std::strtol(text.substr(i + 1, 4).c_str(),
                                nullptr, 16));
                i += 4;
            }
            break;
        default: out += next; break;
        }
    }
    return out;
}

/** Substring-JSON number lookup, the seer_pulse idiom: finds
 *  `"key": <number>` at or after `from`. */
bool
numberField(const std::string &text, const std::string &key,
            double &out, std::size_t from = 0)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = text.find(needle, from);
    if (pos == std::string::npos)
        return false;
    out = std::atof(text.c_str() + pos + needle.size());
    return true;
}

/** CPU seconds this process has used, all threads. */
double
processCpuSeconds()
{
    struct timespec now = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

} // namespace

const char *
profStageName(ProfStage stage)
{
    unsigned index = static_cast<unsigned>(stage);
    return index < kProfStageCount ? kStageNames[index] : "unknown";
}

double
Profile::taggedFraction() const
{
    if (samples == 0)
        return 0.0;
    std::uint64_t tagged = samples - stageSamples[0];
    return static_cast<double>(tagged) /
           static_cast<double>(samples);
}

std::string
Profile::toFolded() const
{
    std::ostringstream out;
    for (const ProfileStack &stack : stacks) {
        out << "[" << profStageName(stack.stage) << "]";
        for (const std::string &frame : stack.frames)
            out << ";" << foldedFrame(frame);
        out << " " << stack.count << "\n";
    }
    return out.str();
}

std::string
Profile::toJson() const
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(6);
    out << "{\"kind\": \"PROFILE\", \"hz\": " << hz
        << ", \"delivered_hz\": " << deliveredHz
        << ", \"duration_s\": " << durationSeconds
        << ", \"cpu_s\": " << cpuSeconds
        << ", \"samples\": " << samples << ", \"dropped\": " << dropped
        << ", \"tagged_fraction\": " << taggedFraction() << ",\n";
    out << " \"stages\": {";
    for (int i = 0; i < kProfStageCount; ++i)
        out << (i == 0 ? "" : ", ") << "\"" << kStageNames[i]
            << "\": " << stageSamples[static_cast<std::size_t>(i)];
    out << "},\n";
    out << " \"alloc\": {\"tracked\": "
        << (allocTracked ? "true" : "false");
    if (allocTracked) {
        out << ", \"bytes\": {";
        for (int i = 0; i < kProfStageCount; ++i)
            out << (i == 0 ? "" : ", ") << "\"" << kStageNames[i]
                << "\": " << allocBytes[static_cast<std::size_t>(i)];
        out << "}, \"counts\": {";
        for (int i = 0; i < kProfStageCount; ++i)
            out << (i == 0 ? "" : ", ") << "\"" << kStageNames[i]
                << "\": " << allocCounts[static_cast<std::size_t>(i)];
        out << "}";
    }
    out << "},\n";
    out << " \"stacks\": [\n";
    for (std::size_t i = 0; i < stacks.size(); ++i) {
        const ProfileStack &stack = stacks[i];
        out << "{\"stage\": \"" << profStageName(stack.stage)
            << "\", \"count\": " << stack.count << ", \"frames\": [";
        for (std::size_t f = 0; f < stack.frames.size(); ++f)
            out << (f == 0 ? "" : ", ") << "\""
                << jsonEscape(stack.frames[f]) << "\"";
        out << "]}" << (i + 1 < stacks.size() ? "," : "") << "\n";
    }
    out << " ]}\n";
    return out.str();
}

bool
parseProfileJson(const std::string &text, Profile &out)
{
    if (text.find("\"kind\": \"PROFILE\"") == std::string::npos &&
        text.find("\"kind\":\"PROFILE\"") == std::string::npos)
        return false;
    Profile profile;
    double value = 0.0;
    if (numberField(text, "hz", value))
        profile.hz = static_cast<int>(value);
    if (numberField(text, "delivered_hz", value))
        profile.deliveredHz = value;
    if (numberField(text, "duration_s", value))
        profile.durationSeconds = value;
    if (numberField(text, "cpu_s", value))
        profile.cpuSeconds = value;
    if (numberField(text, "samples", value))
        profile.samples = static_cast<std::uint64_t>(value);
    if (numberField(text, "dropped", value))
        profile.dropped = static_cast<std::uint64_t>(value);

    std::size_t stages_at = text.find("\"stages\":");
    std::size_t stages_end = stages_at != std::string::npos
                                 ? text.find('}', stages_at)
                                 : std::string::npos;
    if (stages_at != std::string::npos &&
        stages_end != std::string::npos) {
        std::string section =
            text.substr(stages_at, stages_end - stages_at);
        for (int i = 0; i < kProfStageCount; ++i)
            if (numberField(section, kStageNames[i], value))
                profile.stageSamples[static_cast<std::size_t>(i)] =
                    static_cast<std::uint64_t>(value);
    }

    profile.allocTracked =
        text.find("\"tracked\": true") != std::string::npos;
    if (profile.allocTracked) {
        std::size_t bytes_at = text.find("\"bytes\":");
        std::size_t counts_at = text.find("\"counts\":");
        if (bytes_at != std::string::npos &&
            counts_at != std::string::npos) {
            std::string bytes_sec =
                text.substr(bytes_at, counts_at - bytes_at);
            std::string counts_sec = text.substr(
                counts_at, text.find('}', counts_at) - counts_at);
            for (int i = 0; i < kProfStageCount; ++i) {
                if (numberField(bytes_sec, kStageNames[i], value))
                    profile.allocBytes[static_cast<std::size_t>(i)] =
                        static_cast<std::uint64_t>(value);
                if (numberField(counts_sec, kStageNames[i], value))
                    profile.allocCounts[static_cast<std::size_t>(i)] =
                        static_cast<std::uint64_t>(value);
            }
        }
    }

    std::size_t stacks_at = text.find("\"stacks\": [");
    if (stacks_at != std::string::npos) {
        std::istringstream lines(text.substr(stacks_at));
        std::string line;
        while (std::getline(lines, line)) {
            std::size_t open = line.find("{\"stage\": \"");
            if (open == std::string::npos)
                continue;
            ProfileStack stack;
            std::size_t name_at = open + 11;
            std::size_t name_end = line.find('"', name_at);
            if (name_end == std::string::npos)
                continue;
            std::string name =
                line.substr(name_at, name_end - name_at);
            for (int i = 0; i < kProfStageCount; ++i)
                if (name == kStageNames[i])
                    stack.stage = static_cast<ProfStage>(i);
            if (numberField(line, "count", value))
                stack.count = static_cast<std::uint64_t>(value);
            std::size_t frames_at = line.find("\"frames\": [");
            std::size_t frames_end = line.rfind(']');
            if (frames_at != std::string::npos &&
                frames_end != std::string::npos &&
                frames_end > frames_at) {
                std::size_t cursor = frames_at + 11;
                while (cursor < frames_end) {
                    std::size_t quote = line.find('"', cursor);
                    if (quote == std::string::npos ||
                        quote >= frames_end)
                        break;
                    std::size_t close = quote + 1;
                    while (close < frames_end &&
                           !(line[close] == '"' &&
                             line[close - 1] != '\\'))
                        ++close;
                    if (close >= frames_end &&
                        line[close] != '"')
                        break;
                    stack.frames.push_back(jsonUnescape(line.substr(
                        quote + 1, close - quote - 1)));
                    cursor = close + 1;
                }
            }
            profile.stacks.push_back(std::move(stack));
        }
    }
    out = std::move(profile);
    return true;
}

Profiler::Profiler(const ProfilerConfig &config) : config_(config)
{
    if (config_.hz <= 0)
        config_.hz = 99;
    if (config_.maxSamples == 0)
        config_.maxSamples = 16384;
    ring_ = std::make_unique<RawSample[]>(config_.maxSamples);
}

Profiler::~Profiler()
{
    stop();
}

bool
Profiler::start()
{
    if (running_)
        return true;
    Profiler *expected = nullptr;
    if (!gActiveProfiler.compare_exchange_strong(
            expected, this, std::memory_order_acq_rel))
        return false;
    common::prepareThreadForStackCapture();
    common::warmStackCapture();
    for (std::size_t i = 0; i < config_.maxSamples; ++i)
        ring_[i].ready.store(0, std::memory_order_relaxed);
    writeIndex_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
#if defined(CLOUDSEER_PROFILE_ALLOC)
    for (AllocCell &cell : gAllocCells) {
        cell.bytes.store(0, std::memory_order_relaxed);
        cell.count.store(0, std::memory_order_relaxed);
    }
    gAllocTracking.store(true, std::memory_order_relaxed);
#endif
    struct sigaction action = {};
    // SA_SIGINFO hands the handler the interrupted context, whose PC
    // names the function that was running (a walk from the handler's
    // own frame starts at that function's caller).
    action.sa_sigaction = &profilerSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART | SA_SIGINFO;
    if (sigaction(SIGPROF, &action, &oldAction_) != 0) {
        gActiveProfiler.store(nullptr, std::memory_order_release);
        return false;
    }
    if (!timer_.start(config_.hz)) {
        sigaction(SIGPROF, &oldAction_, nullptr);
        gActiveProfiler.store(nullptr, std::memory_order_release);
        return false;
    }
    startTime_ = std::chrono::steady_clock::now();
    cpuAtStart_ = processCpuSeconds();
    running_ = true;
    return true;
}

void
Profiler::stop()
{
    if (!running_)
        return;
    timer_.stop();
    // Let any signal generated before the timer died be delivered to
    // the still-installed handler before the old disposition (usually
    // SIG_DFL, which would terminate the process) comes back.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sigaction(SIGPROF, &oldAction_, nullptr);
    gActiveProfiler.store(nullptr, std::memory_order_release);
#if defined(CLOUDSEER_PROFILE_ALLOC)
    gAllocTracking.store(false, std::memory_order_relaxed);
#endif
    stoppedDuration_ +=
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startTime_)
            .count();
    stoppedCpu_ += processCpuSeconds() - cpuAtStart_;
    running_ = false;
}

void
Profiler::recordSample(const void *ucontext) noexcept
{
    std::uint64_t index =
        writeIndex_.fetch_add(1, std::memory_order_relaxed);
    if (index >= config_.maxSamples) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    RawSample &slot = ring_[index];
    slot.stageWord = detail::tlsStageWord;
    int depth =
        common::captureInterruptedStack(ucontext, slot.frames, kMaxFrames);
    slot.depth = static_cast<std::uint16_t>(std::max(depth, 0));
    slot.ready.store(1, std::memory_order_release);
}

Profile
Profiler::collect() const
{
    Profile out;
    out.hz = config_.hz;
    out.dropped = dropped_.load(std::memory_order_relaxed);
    out.durationSeconds =
        running_ ? stoppedDuration_ +
                       std::chrono::duration<double>(
                           std::chrono::steady_clock::now() -
                           startTime_)
                           .count()
                 : stoppedDuration_;
    out.cpuSeconds =
        running_ ? stoppedCpu_ + (processCpuSeconds() - cpuAtStart_)
                 : stoppedCpu_;

    std::uint64_t written =
        std::min<std::uint64_t>(
            writeIndex_.load(std::memory_order_relaxed),
            config_.maxSamples);

    // Aggregate by (stage word, address vector) first so each unique
    // address is symbolised exactly once.
    std::map<std::vector<std::uintptr_t>, std::uint64_t> grouped;
    for (std::uint64_t i = 0; i < written; ++i) {
        const RawSample &slot = ring_[i];
        if (slot.ready.load(std::memory_order_acquire) == 0)
            continue;
        std::vector<std::uintptr_t> key;
        key.reserve(static_cast<std::size_t>(slot.depth) + 1);
        key.push_back(slot.stageWord);
        for (int f = 0; f < slot.depth; ++f)
            key.push_back(reinterpret_cast<std::uintptr_t>(
                slot.frames[f]));
        ++grouped[std::move(key)];
    }

    std::map<std::uintptr_t, std::string> symbols;
    auto symbolFor = [&symbols](std::uintptr_t addr) {
        auto it = symbols.find(addr);
        if (it == symbols.end())
            it = symbols
                     .emplace(addr, symbolize(reinterpret_cast<void *>(
                                        addr)))
                     .first;
        return it->second;
    };

    for (const auto &[key, count] : grouped) {
        ProfileStack stack;
        std::uint32_t word = static_cast<std::uint32_t>(key.front());
        unsigned stage_index = word & 0xffu;
        if (stage_index >= kProfStageCount)
            stage_index = 0;
        stack.stage = static_cast<ProfStage>(stage_index);
        stack.count = count;
        out.samples += count;
        out.stageSamples[stage_index] += count;
        // Frames arrive innermost first; strip the profiler's own
        // leaf frames (by symbol, plus the signal trampoline by
        // address — see gSigTrampoline), then reverse to root-first
        // for folded output.
        std::uintptr_t trampoline =
            gSigTrampoline.load(std::memory_order_relaxed);
        std::vector<std::string> leaf_first;
        for (std::size_t f = 1; f < key.size(); ++f)
            leaf_first.push_back(symbolFor(key[f]));
        std::size_t skip = 0;
        while (skip < leaf_first.size() &&
               (key[skip + 1] == trampoline ||
                isProfilerFrame(leaf_first[skip])))
            ++skip;
        stack.frames.assign(leaf_first.rbegin(),
                            leaf_first.rend() -
                                static_cast<std::ptrdiff_t>(skip));
        out.stacks.push_back(std::move(stack));
    }

    std::sort(out.stacks.begin(), out.stacks.end(),
              [](const ProfileStack &a, const ProfileStack &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.stage != b.stage)
                      return a.stage < b.stage;
                  return a.frames < b.frames;
              });

    if (out.cpuSeconds > 0.0)
        out.deliveredHz =
            static_cast<double>(out.samples + out.dropped) /
            out.cpuSeconds;

#if defined(CLOUDSEER_PROFILE_ALLOC)
    out.allocTracked = true;
    for (int i = 0; i < kProfStageCount; ++i) {
        out.allocBytes[static_cast<std::size_t>(i)] =
            gAllocCells[i].bytes.load(std::memory_order_relaxed);
        out.allocCounts[static_cast<std::size_t>(i)] =
            gAllocCells[i].count.load(std::memory_order_relaxed);
    }
#endif
    return out;
}

bool
Profiler::allocTrackingCompiledIn()
{
#if defined(CLOUDSEER_PROFILE_ALLOC)
    return true;
#else
    return false;
#endif
}

} // namespace cloudseer::obs

#if defined(CLOUDSEER_PROFILE_ALLOC)

namespace {

void *
trackedAlloc(std::size_t size)
{
    using namespace cloudseer::obs;
    if (gAllocTracking.load(std::memory_order_relaxed)) {
        unsigned stage = detail::tlsStageWord & 0xffu;
        if (stage < kProfStageCount) {
            gAllocCells[stage].bytes.fetch_add(
                size, std::memory_order_relaxed);
            gAllocCells[stage].count.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
    void *ptr = std::malloc(size != 0 ? size : 1);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

} // namespace

void *
operator new(std::size_t size)
{
    return trackedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return trackedAlloc(size);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

#endif // CLOUDSEER_PROFILE_ALLOC
