/**
 * @file
 * SimContext — one simulated application as a thread-confined unit of work.
 *
 * The simulator core (`sim::Gpu` and everything below it) keeps all its
 * mutable state in instance members; the pieces that used to live *around*
 * a run — the config, the workload binding, the finalized stats, the trace
 * sink — are bundled here so a run owns every byte it mutates. Two
 * SimContexts may therefore execute concurrently on different threads with
 * zero synchronization, which is exactly how gcl::exec parallelizes the
 * bench sweep (see DESIGN.md, "Thread confinement").
 *
 * The contract a unit of work must honor:
 *  - MAY touch: its own Gpu, its own TraceSink, its own StatsSet, its own
 *    datasets (every generator seeds a local Rng), and the PrefixStore it
 *    was handed (mutex-guarded; the one object runs share).
 *  - MAY read: the shared Workload registry (immutable after first use),
 *    the config it was given (copied in), environment variables.
 *  - MUST NOT touch: another run's context, process-global mutable state,
 *    or unsynchronized streams — logging goes through gcl::logging which
 *    writes whole lines and tags them with the run's name.
 */

#ifndef GCL_WORKLOADS_SIM_CONTEXT_HH
#define GCL_WORKLOADS_SIM_CONTEXT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "trace/trace.hh"
#include "util/stats.hh"
#include "workload.hh"

namespace gcl::sim
{
struct FunctionalPrefix;
} // namespace gcl::sim

namespace gcl::workloads
{

/**
 * The functional prefixes of sampled runs (sim::FunctionalPrefix), keyed
 * by (app, GpuConfig::functionalFingerprint()): the first run of a key
 * captures its prefix, every later one starts warm from it, whatever its
 * machine timing. The caller owns the store (one per process or test)
 * and hands it to each SimContext; runs on different threads share it
 * through its mutex. Two runs of one key may both start cold and both
 * capture; the store keeps the first copy, and the second equals it,
 * since a warm start equals a cold run. A prefix lives as long as its
 * store.
 */
class PrefixStore
{
  public:
    /** The prefix of (@p app, @p fingerprint), or null. */
    std::shared_ptr<const sim::FunctionalPrefix>
    find(const std::string &app, uint64_t fingerprint) const;

    /** Keep @p prefix unless the key already has one. */
    void insert(const std::string &app, uint64_t fingerprint,
                sim::FunctionalPrefix prefix);

    /** Prefixes held. */
    size_t size() const;

  private:
    using Key = std::pair<std::string, uint64_t>;
    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<const sim::FunctionalPrefix>> prefixes_;
};

/** Owns everything one application simulation mutates. */
class SimContext
{
  public:
    /** Binds @p workload (borrowed; registry-owned) to a config copy. */
    SimContext(const Workload &workload, const sim::GpuConfig &config);
    ~SimContext();

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /**
     * Create this run's private TraceSink before run(). Events drain to
     * @p drain whenever its buffer fills and on completion; @p id_base
     * carves out this run's id range so merged traces stay well-formed
     * (TraceSink::setIdBase). @p timeline_interval as in Gpu::attachTrace.
     */
    void enableTrace(sim::Cycle timeline_interval,
                     trace::TraceSink::DrainFn drain, uint64_t id_base,
                     size_t capacity = trace::TraceSink::kDefaultCapacity);

    /**
     * Simulate the application to completion: dataset generation, all
     * launches, verification, stats finalization. The device model is
     * created here and destroyed before returning (a finished context
     * holds stats, not a GPU). Call at most once.
     *
     * Never throws SimError: a recoverable simulation failure (watchdog
     * hang, cycle-budget timeout, injected fault, tripped invariant) is
     * caught here and recorded as a structured failure() — the run is
     * self-contained, so sibling runs of a parallel sweep are unaffected.
     */
    void run();

    /** CPU reference check outcome (valid after run()). */
    bool verified() const { return verified_; }

    /** True when run() caught a SimError. */
    bool failed() const { return failure_.failed; }

    /** Structured failure record (failed == false means a clean run). */
    const SimFailure &failure() const { return failure_; }

    /** Finalized simulator stats (valid after run()). */
    const StatsSet &stats() const { return stats_; }

    const Workload &workload() const { return workload_; }
    const sim::GpuConfig &config() const { return config_; }

    /** This run's sink, or nullptr when tracing is off. */
    trace::TraceSink *sink() { return sink_.get(); }

    /**
     * Share functional prefixes through @p store (borrowed; it must
     * outlive run()); call before run(). A sampled run then starts warm
     * from its key's prefix, or captures it. Unset, every run is cold.
     */
    void setPrefixStore(PrefixStore &store);

    /** True when run() warm-started from a stored functional prefix. */
    bool ffResumed() const { return ffResumed_; }

    /** True when run() captured its functional prefix into the store. */
    bool ffPrefixCaptured() const { return ffPrefixCaptured_; }

    /**
     * Unit-cycles (SMs and partitions) not ticked because the unit slept,
     * drained or frozen (Gpu::dormantCycles; 0 on a failed run). A
     * wall-clock diagnostic — never part of stats().
     */
    uint64_t dormantCycles() const { return dormantCycles_; }

  private:
    const Workload &workload_;
    sim::GpuConfig config_;
    std::unique_ptr<trace::TraceSink> sink_;
    sim::Cycle timelineInterval_ = 0;
    StatsSet stats_;
    SimFailure failure_;
    bool verified_ = false;
    bool ran_ = false;

    PrefixStore *prefixStore_ = nullptr;
    bool ffResumed_ = false;
    bool ffPrefixCaptured_ = false;
    uint64_t dormantCycles_ = 0;
};

} // namespace gcl::workloads

#endif // GCL_WORKLOADS_SIM_CONTEXT_HH
