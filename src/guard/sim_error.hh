/**
 * @file
 * `gcl::SimError` — the recoverable error type of the simulation path.
 *
 * The repository distinguishes three failure tiers (DESIGN.md,
 * "Robustness"):
 *
 *  - gcl_panic / gcl_assert: a *process-level* invariant broke (scheduler,
 *    logging, harness bookkeeping). The process state is suspect; abort.
 *  - gcl::SimError: something went wrong *inside one simulated run* — a
 *    simulator invariant tripped, a workload kernel misbehaved, a watchdog
 *    detected a hang, a configured fault fired, or the run exceeded its
 *    cycle budget. One run's device model is self-contained
 *    (thread-confined, see workloads::SimContext), so the error is fully
 *    recoverable: SimContext::run catches it and turns it into a
 *    structured per-run failure record while sibling runs continue.
 *  - gcl_fatal: the user's input is unusable (bad flag, bad config file);
 *    exit before any simulation starts.
 *
 * Every SimError carries a machine-readable (kind, component, cycle)
 * triple plus a human-readable context string, so the bench harness can
 * export structured failure records without parsing messages.
 */

#ifndef GCL_GUARD_SIM_ERROR_HH
#define GCL_GUARD_SIM_ERROR_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace gcl
{

namespace guard
{
struct HangReport;
}

/** Recoverable error raised on the simulation path of one run. */
class SimError : public std::runtime_error
{
  public:
    /** What went wrong, coarsely; keys the structured failure record. */
    enum class Kind : uint8_t
    {
        Config,        //!< unusable configuration (unknown key, bad value)
        Invariant,     //!< a simulator-internal invariant was violated
        Workload,      //!< a workload/kernel did something unsupported
        Hang,          //!< the forward-progress watchdog fired
        Timeout,       //!< the run exceeded its max_cycles budget
        FaultInjected, //!< a configured guard::FaultPlan fault fired
        Canceled,      //!< the run was cancelled (signal or test stop)
    };

    SimError(Kind kind, std::string component, uint64_t cycle,
             std::string message);

    Kind kind() const { return kind_; }

    /** The unit that raised the error ("l1s3", "icnt", "gpu", ...). */
    const std::string &component() const { return component_; }

    /** Simulated cycle of the error (0 when no clock was in scope). */
    uint64_t cycle() const { return cycle_; }

    /** The message without the "[kind] component@cycle: " prefix. */
    const std::string &message() const { return message_; }

    /** Watchdog report; only attached when kind() == Kind::Hang. */
    std::shared_ptr<const guard::HangReport> hangReport;

  private:
    Kind kind_;
    std::string component_;
    uint64_t cycle_;
    std::string message_;
};

/** Stable lowercase token for @p kind ("hang", "timeout", ...). */
const char *toString(SimError::Kind kind);

/**
 * Structured record of one failed simulation run — what SimContext keeps
 * after catching a SimError, and what the bench harness exports into the
 * stats JSON/CSV artifacts.
 */
struct SimFailure
{
    bool failed = false;
    std::string kind;      //!< toString(SimError::Kind)
    std::string component;
    uint64_t cycle = 0;
    std::string message;   //!< one-line summary
    std::string detail;    //!< multi-line context (e.g. a HangReport)

    static SimFailure fromError(const SimError &e);
};

namespace guard::detail
{
/** Stream-compose a message from variadic parts (mirrors gcl::detail). */
template <typename... Args>
std::string
composeSimMessage(Args &&...args);
} // namespace guard::detail

} // namespace gcl

#include <sstream>
#include <utility>

template <typename... Args>
std::string
gcl::guard::detail::composeSimMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * Raise a recoverable simulation error.
 * Usage: gcl_sim_error(Kind::Workload, "gpu", now, "empty launch");
 */
#define gcl_sim_error(kind, component, cycle, ...) \
    throw ::gcl::SimError( \
        (kind), (component), (cycle), \
        ::gcl::guard::detail::composeSimMessage(__VA_ARGS__))

/**
 * Simulation-path invariant check: like gcl_assert, but the violation is
 * confined to the run that tripped it (Kind::Invariant) instead of
 * aborting the process.
 */
#define gcl_sim_check(cond, component, cycle, ...) \
    do { \
        if (!(cond)) { \
            gcl_sim_error(::gcl::SimError::Kind::Invariant, (component), \
                          (cycle), "invariant '", #cond, "' violated: ", \
                          __VA_ARGS__); \
        } \
    } while (0)

#endif // GCL_GUARD_SIM_ERROR_HH
