#include "common/stackcapture.hpp"

#include <algorithm>
#include <cstdint>

#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#if defined(__linux__) && defined(__GLIBC__)
#include <execinfo.h>
#define CLOUDSEER_HAVE_BACKTRACE 1
#endif

namespace cloudseer::common {

namespace {

/** Per-thread stack extent for the frame-pointer walk. Constant-
 *  initialised (no TLS guard), so the signal handler can read it on a
 *  thread that never called prepareThreadForStackCapture(): `ready`
 *  is simply false and the walk is skipped. */
struct ThreadStackBounds
{
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    bool ready = false;
};

thread_local ThreadStackBounds tlsBounds;

/**
 * Walk the frame-pointer chain from frame `fp`, innermost first. Every
 * dereference is bounds-checked against the cached stack extent and
 * the chain must be strictly ascending and aligned, so a build that
 * omits frame pointers just terminates early instead of faulting.
 * Returns the number of return addresses written.
 */
int
walkFramePointers(std::uintptr_t fp, void **out, int max)
{
    const ThreadStackBounds &bounds = tlsBounds;
    if (!bounds.ready || max <= 0)
        return 0;
    int count = 0;
    while (count < max) {
        if (fp < bounds.lo || fp + 2 * sizeof(void *) > bounds.hi ||
            (fp & (sizeof(void *) - 1)) != 0)
            break;
        std::uintptr_t next = *reinterpret_cast<std::uintptr_t *>(fp);
        void *ret = *reinterpret_cast<void **>(fp + sizeof(void *));
        if (ret == nullptr)
            break;
        out[count++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    return count;
}

} // namespace

void
prepareThreadForStackCapture()
{
#if defined(__linux__) && defined(__GLIBC__)
    if (tlsBounds.ready)
        return;
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    void *addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0 &&
        addr != nullptr && size > 0) {
        tlsBounds.lo = reinterpret_cast<std::uintptr_t>(addr);
        tlsBounds.hi = tlsBounds.lo + size;
        tlsBounds.ready = true;
    }
    pthread_attr_destroy(&attr);
#endif
}

void
warmStackCapture()
{
#if defined(CLOUDSEER_HAVE_BACKTRACE)
    void *scratch[4];
    (void)backtrace(scratch, 4);
#endif
}

int
captureStack(void **out, int max)
{
    int count = walkFramePointers(
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)), out,
        max);
    // A healthy frame-pointer build yields a deep chain; anything
    // shorter means the chain was cut by FP omission — fall back to
    // the unwinder, which reads .eh_frame instead.
    if (count >= 3)
        return count;
#if defined(CLOUDSEER_HAVE_BACKTRACE)
    count = backtrace(out, max);
    return std::max(count, 0);
#else
    return count;
#endif
}

int
captureInterruptedStack(const void *ucontext, void **out, int max)
{
    std::uintptr_t pc = 0;
    std::uintptr_t fp = 0;
#if defined(__linux__) && defined(__x86_64__)
    if (ucontext != nullptr) {
        const mcontext_t &mc =
            static_cast<const ucontext_t *>(ucontext)->uc_mcontext;
        pc = static_cast<std::uintptr_t>(mc.gregs[REG_RIP]);
        fp = static_cast<std::uintptr_t>(mc.gregs[REG_RBP]);
    }
#elif defined(__linux__) && defined(__aarch64__)
    if (ucontext != nullptr) {
        const mcontext_t &mc =
            static_cast<const ucontext_t *>(ucontext)->uc_mcontext;
        pc = static_cast<std::uintptr_t>(mc.pc);
        fp = static_cast<std::uintptr_t>(mc.regs[29]);
    }
#else
    (void)ucontext;
#endif
    if (pc != 0 && max > 1) {
        // The interrupted PC is the leaf; the chain from the
        // interrupted frame pointer gives its callers (the first is
        // the caller's caller when the leaf keeps no frame).
        out[0] = reinterpret_cast<void *>(pc);
        int count = 1 + walkFramePointers(fp, out + 1, max - 1);
        if (count >= 3)
            return count;
    }
    return captureStack(out, max);
}

bool
ProfTimer::start(int hz)
{
    if (active_ || hz <= 0 || hz > 10000)
        return false;
#if defined(__linux__)
    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &timer_) == 0) {
        long interval_ns = 1000000000L / hz;
        struct itimerspec spec = {};
        spec.it_interval.tv_sec = interval_ns / 1000000000L;
        spec.it_interval.tv_nsec = interval_ns % 1000000000L;
        spec.it_value = spec.it_interval;
        if (timer_settime(timer_, 0, &spec, nullptr) == 0) {
            posixTimer_ = true;
            active_ = true;
            return true;
        }
        timer_delete(timer_);
    }
#endif
    struct itimerval val = {};
    long interval_us = std::max(1L, 1000000L / hz);
    val.it_interval.tv_sec = interval_us / 1000000L;
    val.it_interval.tv_usec = interval_us % 1000000L;
    val.it_value = val.it_interval;
    if (setitimer(ITIMER_PROF, &val, nullptr) == 0) {
        active_ = true;
        return true;
    }
    return false;
}

void
ProfTimer::stop()
{
    if (!active_)
        return;
#if defined(__linux__)
    if (posixTimer_)
        timer_delete(timer_);
#endif
    if (!posixTimer_) {
        struct itimerval zero = {};
        setitimer(ITIMER_PROF, &zero, nullptr);
    }
    posixTimer_ = false;
    active_ = false;
}

} // namespace cloudseer::common
