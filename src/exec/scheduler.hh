/**
 * @file
 * `gcl::exec` — a small deterministic job scheduler.
 *
 * The simulator is strictly single-threaded *within* one device model, but
 * a characterization study runs many independent simulations (the 15-app
 * sweep, ablation grids, parameter scans). This subsystem supplies the
 * concurrency for that outer loop: parallelFor fans an index range out
 * over a few threads, with per-index exception capture. Callers keep one
 * result slot per index, so they observe the same outputs as a serial
 * loop — determinism comes from the slots, not from the schedule.
 *
 * Contract: a job must be *thread-confined* — it may only touch state it
 * owns (see DESIGN.md, "Thread confinement"). parallelFor starts its
 * threads after the caller's writes and joins them before it returns, so
 * a job's results may be read without further synchronization once it
 * returns.
 */

#ifndef GCL_EXEC_SCHEDULER_HH
#define GCL_EXEC_SCHEDULER_HH

#include <cstddef>
#include <functional>

namespace gcl::exec
{

/** std::thread::hardware_concurrency(), never less than 1. */
unsigned hardwareThreads();

/**
 * Job-count policy shared by every parallel caller: an explicit request
 * wins; otherwise the @p envvar (e.g. "GCL_BENCH_JOBS") is consulted;
 * otherwise @p fallback. A value of 0 (from either source) means "one job
 * per hardware thread". The result is always >= 1.
 */
unsigned resolveJobs(unsigned requested, const char *envvar,
                     unsigned fallback = 1);

/**
 * Run fn(0) ... fn(count-1) on min(@p jobs, @p count) threads and return
 * once all have finished. The threads take indices in ascending order
 * from one shared counter.
 *
 * jobs <= 1 runs every index inline on the calling thread, in order, with
 * exceptions propagating immediately — byte-for-byte the plain serial
 * loop. With jobs > 1, every job runs to completion even if another
 * throws; afterwards the captured exception with the lowest index is
 * rethrown, so the reported failure does not depend on thread timing.
 */
void parallelFor(unsigned jobs, size_t count,
                 const std::function<void(size_t)> &fn);

} // namespace gcl::exec

#endif // GCL_EXEC_SCHEDULER_HH
