#pragma once

/**
 * Async-signal-safe stack capture + profiling-timer helpers for the
 * seer-probe sampling profiler (DESIGN.md §17).
 *
 * The capture path is built to be callable from inside a SIGPROF
 * handler: the interrupted PC from the signal's ucontext, then a
 * frame-pointer walk bounded by the current thread's stack
 * extent (cached per thread in normal context, never computed in the
 * handler), falling back to glibc `backtrace()` when the chain is cut
 * short by frame-pointer omission. `backtrace()` lazily dlopens
 * libgcc on first use — `warmStackCapture()` pays that allocation in
 * normal context so the handler never does.
 */

#include <cstddef>

#if defined(__linux__)
#include <time.h>
#endif

namespace cloudseer::common {

/**
 * Cache the calling thread's stack bounds for the frame-pointer
 * walker. Cheap after the first call on a thread; must be called in
 * normal (non-signal) context because it may allocate. Threads that
 * never call it still profile correctly via the backtrace fallback.
 */
void prepareThreadForStackCapture();

/**
 * Force the lazy pieces of `backtrace()` (libgcc dlopen) to load now,
 * in normal context, so the first in-handler capture is signal-safe.
 */
void warmStackCapture();

/**
 * Capture up to `max` return addresses for the calling thread,
 * innermost first. Async-signal-safe once `warmStackCapture()` has
 * run in the process. Returns the number of frames written (0 when
 * nothing could be captured).
 */
int captureStack(void **out, int max);

/**
 * Capture the stack a signal interrupted, innermost first, from the
 * `ucontext` a SA_SIGINFO handler receives: the interrupted PC is the
 * first frame (the function that was running, not its caller), then
 * the frame-pointer chain from the interrupted frame pointer. A frame
 * chain cut short, or a platform whose context this does not read
 * (only x86-64 and aarch64 Linux are), falls back to captureStack(),
 * whose frames begin inside the handler. Async-signal-safe under the
 * same conditions as captureStack().
 */
int captureInterruptedStack(const void *ucontext, void **out, int max);

/**
 * A process-CPU-time profiling timer delivering SIGPROF at a fixed
 * rate: `timer_create(CLOCK_PROCESS_CPUTIME_ID)` when available,
 * `setitimer(ITIMER_PROF)` as the fallback. The caller owns the
 * SIGPROF disposition; this only arms and disarms the clock.
 */
class ProfTimer
{
public:
    ProfTimer() = default;
    ~ProfTimer() { stop(); }
    ProfTimer(const ProfTimer &) = delete;
    ProfTimer &operator=(const ProfTimer &) = delete;

    /** Arm at `hz` samples per CPU-second. False if already armed,
     *  `hz` is out of range, or both timer back ends fail. */
    bool start(int hz);

    /** Disarm. Safe to call when not armed. */
    void stop();

    bool active() const { return active_; }

private:
#if defined(__linux__)
    timer_t timer_{};
#endif
    bool posixTimer_ = false;
    bool active_ = false;
};

} // namespace cloudseer::common
