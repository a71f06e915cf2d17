/**
 * @file
 * The whole device: SMs, interconnect, memory partitions, the CTA
 * dispatcher, and the host-facing API (malloc / memcpy / launch), mirroring
 * the CUDA runtime surface the paper's benchmarks use.
 */

#ifndef GCL_SIM_GPU_HH
#define GCL_SIM_GPU_HH

#include <functional>
#include <memory>
#include <vector>

#include "config.hh"
#include "crit/crit.hh"
#include "functional.hh"
#include "guard/fault.hh"
#include "guard/watchdog.hh"
#include "interconnect.hh"
#include "mem_partition.hh"
#include "memory.hh"
#include "sample.hh"
#include "sm.hh"
#include "stats.hh"
#include "trace/trace.hh"
#include "warp.hh"

namespace gcl::snap
{
class Snapshot;
class SnapWriter;
class SnapReader;
} // namespace gcl::snap

namespace gcl::sim
{

/** A simulated GPU device. */
class Gpu
{
  public:
    explicit Gpu(GpuConfig config = GpuConfig{});

    // ---- Host API ----

    /** Allocate device memory; returns the device address. */
    uint64_t deviceMalloc(size_t bytes);

    /** Host -> device copy. */
    void memcpyToDevice(uint64_t dst, const void *src, size_t bytes);

    /** Device -> host copy. */
    void memcpyToHost(void *dst, uint64_t src, size_t bytes);

    /**
     * Launch a kernel and simulate it to completion.
     *
     * Classification of the kernel's global loads (the paper's Section V
     * analysis) runs automatically and attributes every dynamic event to
     * its static class.
     *
     * @throws SimError when the run exceeds its max_cycles budget
     *         (Kind::Timeout), the forward-progress watchdog fires
     *         (Kind::Hang, HangReport attached), a configured fault plan
     *         stops the kernel (Kind::FaultInjected), or a simulator /
     *         workload invariant trips. The device is not usable after a
     *         throw; the owner abandons the whole run.
     */
    void launch(const ptx::Kernel &kernel, Dim3 grid, Dim3 cta,
                std::vector<uint64_t> params);

    // ---- Introspection ----

    const GpuConfig &config() const { return config_; }
    GlobalMemory &memory() { return gmem_; }
    SimStats &stats() { return stats_; }

    /**
     * Cycles consumed by the most recent launch; 0 when it was fully
     * fast-forwarded (sampled simulation).
     */
    Cycle lastLaunchCycles() const { return lastLaunchCycles_; }

    /** Fold locality maps into the stats set; call once, after all launches. */
    void finalizeStats();

    /** Fault oracle for this run; null when no plan is configured. */
    const guard::FaultInjector *faultInjector() const { return fault_.get(); }

    /**
     * Install an event sink (gcl::trace) on every unit. When
     * @p timeline_interval is nonzero, occupancy/queue-depth counters are
     * additionally sampled every that many cycles during launches. Pass
     * nullptr to detach.
     */
    void attachTrace(trace::TraceSink *sink, Cycle timeline_interval = 0);

    /** Default line-address to memory-partition mapping. */
    static int mapPartition(uint64_t line_addr, int sm_id,
                            const GpuConfig &config);

    // ---- Per-unit sleep (config.cycleSkipping) ----

    /**
     * Always 0: the clock steps one cycle at a time. Kept only for
     * perfbench/gcl_perfbench.cc, its one reader.
     */
    uint64_t skippedCycles() const { return 0; }

    /** Always 0, like skippedCycles(), for the same one reader. */
    uint64_t skipEvents() const { return 0; }

    /**
     * Unit-cycles (SMs and partitions) not ticked because the unit slept:
     * drained, or frozen (stalled LD/ST or ROP head, or a pure
     * fill/arrival wait). Credited in bulk at wake; a wall-clock
     * diagnostic that never reaches the stats set.
     */
    uint64_t dormantCycles() const { return dormantCycles_; }

    // ---- Kernel boundaries ----

    /** Global monotonic cycle count across launches. */
    Cycle clock() const { return clock_; }

    /** Kernel launches completed so far (the boundary index). */
    uint64_t kernelsDone() const { return kernelsDone_; }

    /**
     * Install a kernel-boundary callback. It fires with k = 0 at the
     * first launch's entry (before any simulation) and with k = n after
     * the n-th launch retires, fast-forwarded launches of a sampled run
     * included — the points where the device is fully drained. A run
     * warm-started from a functional prefix (beginResume) fires neither
     * boundary 0 nor the boundaries of the launches the prefix covers.
     */
    void setBoundaryHook(std::function<void(uint64_t)> hook)
    {
        boundaryHook_ = std::move(hook);
    }

    // ---- Sampled simulation (config.sample; src/sim/sample.hh) ----

    /**
     * Record every deviceMalloc and memcpyToHost from now on, so a
     * functional prefix snapshot (saveFunctional) can replay the host
     * program's device-visible inputs deterministically. Must be enabled
     * before the first host API call of the run.
     */
    void enableHostLog() { hostLogEnabled_ = true; }

    /**
     * Install the warm-start capture hook. It fires at most once per run:
     * at the first moment detailed timing work is about to start, and
     * only when the run's prefix up to that point was purely functional
     * (fast-forward only, no timed cycles) and non-empty. At that moment
     * the device's only meaningful state is functional — global memory,
     * the host log, the warm ring, the extrapolation book — which is
     * machine-timing-independent, so the caller can saveFunctional() it
     * into a prefix snapshot keyed by functionalFingerprint() and share
     * it across a --machine sweep.
     */
    void setFfPrefixHook(std::function<void()> hook)
    {
        ffPrefixHook_ = std::move(hook);
    }

    /**
     * Serialize the functional-only prefix state (see setFfPrefixHook):
     * global memory, the host log, and the sampling bookkeeping.
     */
    void saveFunctional(snap::Snapshot &snapshot) const;

    /**
     * Arm a warm start from the functional prefix @p snapshot. The caller
     * then re-runs the host program from the start: launches the prefix
     * fully fast-forwarded are skipped, memcpyToHost is served from the
     * recorded host log, and deviceMalloc is replayed with address
     * verification. At the captured launch, global memory and the
     * sampling state are restored and the launch's remaining CTAs run
     * normally, so every output is byte-identical to a cold run.
     *
     * @throws SimError{Kind::Snapshot} on a functional-fingerprint
     *         mismatch or a host log that does not decode. The host API
     *         calls raise the same kind when the host program diverges
     *         from the log, and the captured launch when a section does
     *         not decode.
     */
    void beginResume(std::shared_ptr<const snap::Snapshot> snapshot);

  private:
    /** One recorded host API call (enableHostLog). */
    struct HostLogEntry
    {
        uint8_t op;                  //!< 0 = deviceMalloc, 1 = memcpyToHost
        uint64_t addr;
        uint64_t size;
        std::vector<uint8_t> data;   //!< memcpyToHost payload
    };

    /** Restore the armed prefix at its capture point. */
    void applyRestore();
    void saveHostLog(snap::SnapWriter &out) const;
    void loadHostLog(snap::SnapReader &in);
    struct DispatchState
    {
        uint64_t next = 0;     //!< next dispatch position to place
        uint64_t total = 0;
        unsigned rrSm = 0;
        const LaunchContext *launch = nullptr;
        /**
         * Sampled simulation: when set, position i dispatches linear CTA
         * ctaList[i] instead of i itself (the detailed window of a
         * windowed launch). Each id is pinned to the SM the full run's
         * first dispatch wave would give it, so the window lands on the
         * L1 state (warm replay + previous windows) of the right SM.
         */
        const std::vector<uint64_t> *ctaList = nullptr;
    };

    /**
     * The SM dispatchCtas would place the next waiting CTA on right now,
     * or -1 when no CTA waits or the policy's SM for it has no room.
     */
    int nextCtaSm(const DispatchState &dispatch) const;
    void dispatchCtas(DispatchState &dispatch, Cycle now);
    bool allIdle() const;
    void sampleTimeline(Cycle now) const;

    // ---- Sampled simulation internals (config.sample) ----

    /**
     * Retire CTAs @p ids[skip..] of @p launch functionally: every warp
     * instruction executes through the architectural WarpExecutor in the
     * canonical order (occupancy-wave-sized batches of CTAs in list
     * order, one instruction per live warp per round-robin sweep across
     * the wave, (cta, warp) index order) with immediate memory
     * application. No unit ticks, no stats, no trace events — the clock
     * does not move. Global-space accesses are recorded into the warm
     * ring for the next detailed window's cache warm-up.
     */
    void fastForwardCtas(const LaunchContext &launch,
                         const std::vector<uint64_t> &ids, uint64_t skip);

    /**
     * CTAs the machine keeps resident at once for @p launch (per-SM
     * residency x numSms, the same capacity math as Sm::startLaunch) —
     * the fast-forward batch size and the extrapolation's wave unit.
     */
    uint64_t ctasPerWave(const LaunchContext &launch) const;

    /** Record one fast-forwarded memory instruction into the warm ring. */
    void recordWarm(const StepInfo &info, uint64_t cta_linear);

    /**
     * Replay the warm ring (oldest first) into the L1/L2 tag arrays via
     * Cache::warm, approximating the tag state the skipped span would
     * have left. Loads warm the home SM's L1 (heuristic: cta % numSms)
     * and the owning L2 slice; stores and atomics warm L2 only (the L1s
     * are no-write-allocate). Only called while the device is quiescent.
     */
    void warmCaches();

    /**
     * First timed work of a launch is about to start after @p ff_in_launch
     * fast-forwarded CTAs. Fires the warm-start capture hook when the
     * whole run so far was purely functional and the prefix is non-empty.
     */
    void beginDetailedWork(uint64_t ff_in_launch);

    /** Serialize / restore the sampling bookkeeping (book + warm ring). */
    void saveSampleState(snap::SnapWriter &out) const;
    void loadSampleState(snap::SnapReader &in);

    // ---- Per-unit sleep (config.cycleSkipping) ----
    //
    // A unit (SM or partition, by unit id) that cannot do anything
    // observable next cycle stops ticking until its wakeAt:
    //  - a drained unit (SM !busy(), partition idle()) sleeps at kNever
    //    until a CTA placement (SM) or an arrival it can accept
    //    (partition);
    //  - a stalled unit sleeps until its nextEventCycle certificate, or
    //    earlier when a response (SM), an injection credit for a
    //    FailIcnt-frozen head (SM) or an acceptable arrival (partition)
    //    shows up — checked every cycle by reading the crossbar's
    //    delivery cycles (and, behind the unit's frozen gate bit, its
    //    injection-queue length) in wakeDue.
    // At wake the unit credits its own span in bulk (wakeUnit). The
    // clock still steps one cycle at a time, so a cycle with every unit
    // asleep costs only the wake checks and the crossbar's arbitration.
    // With cycle_skipping=0 nothing sleeps: that run is the eager
    // reference.

    /**
     * Sleep-state wakeAt of a unit only an outside stimulus can wake: the
     * certificate a drained SM or partition reports.
     */
    static constexpr Cycle kNever = Sm::kNoEvent;

    struct SleepState
    {
        bool asleep = false;
        /**
         * Frozen at sleepUnit: for an SM, its LD/ST head is stalled on
         * FailIcnt (an injection credit wakes it); for a partition,
         * canAcceptArrival() (an arrival wakes it). Both inputs change
         * only when the unit ticks, and every path that touches a
         * sleeper wakes it first, so the bit stays exact while asleep.
         */
        bool gate = false;
        Cycle from = 0;     //!< first un-ticked cycle
        Cycle wakeAt = 0;   //!< own wake cycle; kNever = outside only
    };

    /** Unit @p unit stops ticking from @p from until @p wake_at. */
    void sleepUnit(unsigned unit, Cycle from, Cycle wake_at);

    /**
     * End unit @p unit's sleep; it ticks again from cycle @p resume.
     * Credits the span the eager loop would have ticked: a drained SM
     * with Sm::idleCycles (what idleCycle() adds), a busy SM with
     * Sm::skipCycles, a partition with MemPartition::skipCycles (a no-op
     * when it is idle).
     */
    void wakeUnit(unsigned unit, Cycle resume);

    /**
     * True when sleeping unit @p unit must tick in cycle @p now: its own
     * wakeAt came, or the crossbar holds what it waits for — a
     * deliverable response or, behind the gate, an injection credit
     * (SM); behind the gate, a deliverable arrival (partition). Reads
     * the sleep state and the crossbar, never the unit itself.
     */
    bool
    wakeDue(unsigned unit, Cycle now) const
    {
        const SleepState &state = sleep_[unit];
        if (state.wakeAt <= now)
            return true;
        if (unit >= config_.numSms)
            return state.gate &&
                   icnt_.hasRequest(
                       static_cast<int>(unit - config_.numSms), now);
        return icnt_.hasResponse(static_cast<int>(unit), now) ||
               (state.gate && icnt_.canInject(static_cast<int>(unit)));
    }

    /**
     * Settle every sleeper's span before a timeout, fault-stop or cancel
     * error unwinds, a hang report composes or the launch retires, so the
     * observable stats match the eager loop's.
     */
    void wakeAll(Cycle resume);

    /**
     * Where unit @p unit, awake through the end of cycle @p now, would
     * next need a tick: now + 1 keeps it awake.
     */
    Cycle wakeAtFor(unsigned unit, Cycle now) const;

    guard::HangReport buildHangReport(const std::string &kernel,
                                      Cycle now) const;

    /** Total tickable units: numSms SMs then numPartitions partitions. */
    unsigned numUnits() const;

    GpuConfig config_;
    GlobalMemory gmem_;
    SimStats stats_;
    /**
     * Handle pools for every memory request / warp op of the run. Declared
     * before the units that hold references into them (interconnect, SMs,
     * partitions) so the pools outlive all outstanding handles.
     */
    MemPools pools_;
    Interconnect icnt_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::vector<std::unique_ptr<MemPartition>> partitions_;
    /**
     * Global monotonic cycle counter across launches. Timing state with
     * absolute stamps (e.g.\ the DRAM channels' busy-until marks) persists
     * between launches, so the clock must never run backwards.
     */
    Cycle clock_ = 0;
    Cycle lastLaunchCycles_ = 0;

    trace::TraceSink *traceSink_ = nullptr;
    Cycle timelineInterval_ = 0;

    guard::Watchdog watchdog_;
    std::unique_ptr<guard::FaultInjector> fault_;

    /**
     * Criticality profiler (gcl::crit); null unless config_.crit. Owns
     * one shard per SM, installed on Sm::crit at construction and folded
     * into the stats set by finalizeStats().
     */
    std::unique_ptr<crit::CritStats> crit_;

    // ---- Per-unit sleep state ----

    /** Sleep state per unit id: SMs, then partitions. */
    std::vector<SleepState> sleep_;
    unsigned awakeCount_ = 0;   //!< gates launch's all-drained scan
    uint64_t dormantCycles_ = 0;

    // ---- Kernel boundaries and the functional prefix (gcl::snap) ----
    uint64_t kernelsDone_ = 0;
    std::function<void(uint64_t)> boundaryHook_;
    bool firstBoundaryFired_ = false;
    bool hostLogEnabled_ = false;
    std::vector<HostLogEntry> hostLog_;
    size_t hostLogCursor_ = 0;       //!< replay position while resuming
    bool resume_ = false;            //!< skipping fast-forwarded launches
    uint64_t resumeTarget_ = 0;      //!< launch the prefix was captured in
    std::shared_ptr<const snap::Snapshot> resumeSnap_;

    // ---- Sampled simulation state (config.sample) ----

    /** Parsed config_.sample; Mode::Off when sampling is disabled. */
    SamplePlan samplePlan_;

    /** Lazily created serial executor for fast-forwarded CTAs. */
    std::unique_ptr<WarpExecutor> ffExec_;

    /**
     * One global-space access of a fast-forwarded instruction, recorded
     * at a fixed machine-independent 128-byte granularity (converted to
     * the machine's own line sizes at replay) so the ring's bytes — and
     * the functional prefix snapshot holding them — are shared across a
     * --machine sweep.
     */
    struct WarmEntry
    {
        uint64_t chunk;    //!< 128B-aligned byte address
        uint32_t cta;      //!< linear CTA id (picks the home SM's L1)
        uint8_t isStore;   //!< store or atomic: skips the L1 at replay
    };

    /**
     * Bounded ring of the newest fast-forwarded accesses since the last
     * detailed window (oldest overwritten first). Cleared after each
     * window's warm-up: the window leaves real tag state behind, so
     * stale pre-window entries must not pollute the next warm-up.
     */
    static constexpr size_t kWarmRingCapacity = size_t{1} << 17;
    std::vector<WarmEntry> warmRing_;
    size_t warmHead_ = 0;    //!< oldest entry once the ring wrapped

    /**
     * Per-launch extrapolation record (finalizeStats). Extrapolation is
     * wave-based, not CTA-based: the machine retires CTAs in waves of
     * (numSms x per-SM residency), so a window's cycles scale by the
     * wave-count ratio. A CTA ratio would overestimate small launches
     * badly — a 2-of-5-CTA window is latency-bound just like the full
     * 5-CTA launch (both are a single wave), not 2.5x faster.
     */
    struct SampleLaunch
    {
        uint64_t kernel = 0;          //!< launch index
        uint64_t totalCtas = 0;
        uint64_t detailedCtas = 0;    //!< 0 = fully fast-forwarded
        uint64_t detailedCycles = 0;  //!< cycles of the detailed window
        uint64_t totalWaves = 0;      //!< occupancy waves of the full grid
        uint64_t detailedWaves = 0;   //!< waves of the detailed window
        uint64_t detailedWork = 0;    //!< thread-insts timed in the window
        uint64_t ffWork = 0;          //!< thread-insts fast-forwarded
    };
    std::vector<SampleLaunch> sampleBook_;

    /**
     * Thread-instructions fast-forwarded in the launch currently being
     * split (the work the extrapolation charges to skipped launches).
     * Restored from the prefix snapshot on a warm start so the resumed
     * run's book matches the fresh run's byte for byte.
     */
    uint64_t ffLaunchWork_ = 0;

    bool timedWorkDone_ = false;     //!< a detailed session has started
    std::function<void()> ffPrefixHook_;
    /** Prefix CTAs fast-forwarded in the captured launch (snapshot field). */
    uint64_t ffCaptureCtaIndex_ = 0;
    /** Prefix CTAs to skip in the restore-target launch (consumed once). */
    uint64_t ffSkipCtas_ = 0;
};

} // namespace gcl::sim

#endif // GCL_SIM_GPU_HH
