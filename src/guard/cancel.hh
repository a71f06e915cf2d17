/**
 * @file
 * Process-wide cooperative cancellation flag.
 *
 * The bench runner's SIGINT/SIGTERM handler sets this flag; every
 * in-flight device cycle loop polls it (cheaply, once per ~1k cycles)
 * and raises SimError{Kind::Canceled} between cycles, never mid-cycle,
 * so a cancelled run unwinds through the normal recoverable-error path:
 * its SimContext records a structured failure and sibling sweep runs
 * keep draining.
 *
 * The flag is a lock-free std::atomic<bool>, which makes requestCancel()
 * safe to call from a signal handler and cancelRequested() safe to poll
 * from any sweep worker.
 */

#ifndef GCL_GUARD_CANCEL_HH
#define GCL_GUARD_CANCEL_HH

namespace gcl::guard
{

/** Ask every in-flight run to stop at its next poll point. */
void requestCancel();

/** True once requestCancel() has been called (relaxed load). */
bool cancelRequested();

/** Clear the flag (tests; a fresh process starts clear). */
void resetCancel();

} // namespace gcl::guard

#endif // GCL_GUARD_CANCEL_HH
