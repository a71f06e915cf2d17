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
 *    datasets (every generator seeds a local Rng), and its functional
 *    prefix file (SnapOptions; written atomically, so runs sharing a key
 *    publish identical complete files).
 *  - MAY read: the shared Workload registry (immutable after first use),
 *    the config it was given (copied in), environment variables.
 *  - MUST NOT touch: another run's context, process-global mutable state,
 *    or unsynchronized streams — logging goes through gcl::logging which
 *    writes whole lines and tags them with the run's name.
 */

#ifndef GCL_WORKLOADS_SIM_CONTEXT_HH
#define GCL_WORKLOADS_SIM_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "trace/trace.hh"
#include "util/stats.hh"
#include "workload.hh"

namespace gcl::workloads
{

/**
 * Functional-prefix options for one sampled run (gcl::snap). Deliberately
 * NOT part of GpuConfig: a warm start never changes simulated behavior,
 * so it must not perturb the config fingerprint or the run cache
 * identity.
 */
struct SnapOptions
{
    /**
     * Free-form provenance pairs recorded in the prefix header. A prefix
     * that carries one of these keys with a different value (e.g. another
     * dataset_version) is not used: the run falls back to a fresh one.
     */
    std::vector<std::pair<std::string, std::string>> meta;

    /**
     * Warm-start prefix snapshot for sampled runs (gcl::sim sampling,
     * config.sample). When set and the file exists, the run restores the
     * shared functional fast-forward prefix from it; when it does not
     * exist, the run captures and writes it at the first detailed window.
     * Keyed by GpuConfig::functionalFingerprint, so one file serves every
     * machine of a --machine sweep.
     *
     * A missing or unreadable file (bad magic, schema or CRC), or one that
     * does not match this run (app, functional fingerprint, meta), falls
     * back to a fresh run. A matching, CRC-valid file whose sections do
     * not decode, or whose host log the host program diverges from, ends
     * the run with a SimError{Kind::Snapshot} failure record, and run()
     * removes the file, so the next run of its key recaptures it.
     */
    std::string ffPrefixPath;
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
     * @p drain whenever the ring fills and on completion; @p id_base
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

    /** Configure the functional prefix for this run; call before run(). */
    void setSnapOptions(SnapOptions options);

    /**
     * True when run() warm-started from the functional prefix
     * (ffPrefixPath), including a start that failed with a snapshot error.
     */
    bool ffResumed() const { return ffResumed_; }

    /** True when run() captured and wrote the functional prefix. */
    bool ffPrefixWritten() const { return ffPrefixWritten_; }

    /**
     * Unit-cycles (SMs and partitions) not ticked because the unit slept,
     * drained or frozen (Gpu::dormantCycles; 0 on a failed run). A
     * wall-clock diagnostic — never part of stats().
     */
    uint64_t dormantCycles() const { return dormantCycles_; }

  private:
    /**
     * Try to restore the shared functional prefix from ffPrefixPath.
     * Sets ffResumed_ before Gpu::beginResume, so that run() removes a
     * prefix whose decoding fails there or later in the run.
     * @retval false when the file is missing, unreadable, or does not
     *         match this run (wrong app / functional fingerprint / meta)
     *         — the run continues fresh and re-captures the prefix.
     * @throws SimError{Kind::Snapshot} when a matching prefix's host log
     *         does not decode (Gpu::beginResume); run() then removes the
     *         file.
     */
    bool tryFfResume(sim::Gpu &gpu);

    /** Capture the functional prefix of @p gpu into ffPrefixPath. */
    void writeFfPrefix(sim::Gpu &gpu);

    const Workload &workload_;
    sim::GpuConfig config_;
    std::unique_ptr<trace::TraceSink> sink_;
    sim::Cycle timelineInterval_ = 0;
    StatsSet stats_;
    SimFailure failure_;
    bool verified_ = false;
    bool ran_ = false;

    SnapOptions snap_;
    bool ffResumed_ = false;
    bool ffPrefixWritten_ = false;
    uint64_t dormantCycles_ = 0;
};

} // namespace gcl::workloads

#endif // GCL_WORKLOADS_SIM_CONTEXT_HH
