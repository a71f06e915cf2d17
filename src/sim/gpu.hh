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

namespace gcl::sim
{

/**
 * The functional prefix of a sampled run: everything a run's state holds
 * at its first timed work when all that came before was fast-forwarded
 * (Gpu::setFfPrefixHook). No timing structure has ticked by then, so the
 * value does not depend on machine timing: one capture warm-starts every
 * config of the app with the same GpuConfig::functionalFingerprint() and
 * the same fast-forward wave size (ctasPerWave), byte-identically to a
 * cold run (Gpu::beginResume).
 */
struct FunctionalPrefix
{
    /** One recorded host API call. */
    struct HostCall
    {
        uint8_t op;                  //!< 0 = deviceMalloc, 1 = memcpyToHost
        uint64_t addr;
        uint64_t size;
        std::vector<uint8_t> data;   //!< memcpyToHost payload
    };

    /**
     * One global-space access of a fast-forwarded instruction, recorded
     * at a fixed 128-byte granularity and converted to the machine's own
     * line sizes at replay, so the ring does not depend on them.
     */
    struct WarmEntry
    {
        uint64_t chunk;    //!< 128B-aligned byte address
        uint32_t cta;      //!< linear CTA id (picks the home SM's L1)
        uint8_t isStore;   //!< store or atomic: skips the L1 at replay
    };

    /**
     * Per-launch extrapolation record (Gpu::finalizeStats). Extrapolation
     * is wave-based, not CTA-based: the machine retires CTAs in waves of
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

    uint64_t kernelIndex = 0;   //!< the launch the prefix ends in
    uint64_t ffCtas = 0;        //!< CTAs of it fast-forwarded before
    uint64_t ffWork = 0;        //!< their thread-instructions
    GlobalMemory memory;
    std::vector<HostCall> hostLog;
    std::vector<SampleLaunch> book;
    std::vector<WarmEntry> warmRing;   //!< oldest first
};

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
     * Install the warm-start capture hook; call before the first host API
     * call of the run. From then on the device records every deviceMalloc
     * and memcpyToHost, so a warm start can replay the host program's
     * device-visible inputs. The hook fires at most once per run: at the
     * first moment detailed timing work is about to start, and only when
     * the run up to that point was purely functional (fast-forward only,
     * no timed cycles) and non-empty. It receives the FunctionalPrefix of
     * that moment. Recording stops there, whether or not the hook fired.
     */
    void setFfPrefixHook(std::function<void(FunctionalPrefix)> hook)
    {
        ffPrefixHook_ = std::move(hook);
    }

    /**
     * Arm a warm start from @p prefix, captured under this run's app and
     * functional fingerprint. The caller then re-runs the host program
     * from the start: launches the prefix fully fast-forwarded are
     * skipped, memcpyToHost is served from the recorded host log, and
     * deviceMalloc is replayed with address verification. At the captured
     * launch, global memory and the sampling state are restored and the
     * launch's remaining CTAs run normally, so every output is
     * byte-identical to a cold run.
     *
     * The host API calls raise SimError{Kind::Invariant} when the host
     * program diverges from the log.
     */
    void beginResume(std::shared_ptr<const FunctionalPrefix> prefix);

  private:
    using HostCall = FunctionalPrefix::HostCall;
    using WarmEntry = FunctionalPrefix::WarmEntry;
    using SampleLaunch = FunctionalPrefix::SampleLaunch;

    /**
     * Check the next host call of a warm start against the log: fatal
     * (Invariant) unless it is op @p op on @p addr and @p size.
     */
    const HostCall &replayHostCall(uint8_t op, uint64_t addr, uint64_t size);

    /** Restore the armed prefix at its capture point. */
    void applyRestore();
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
     * does not move. Under every:N, global-space accesses are recorded
     * into the warm ring for the next detailed window's cache warm-up.
     */
    void fastForwardCtas(const LaunchContext &launch,
                         const std::vector<uint64_t> &ids, uint64_t skip);

    /**
     * CTAs the machine keeps resident at once for @p launch (per-SM
     * residency x numSms, the same capacity math as Sm::startLaunch) —
     * the fast-forward batch size and the extrapolation's wave unit.
     */
    uint64_t ctasPerWave(const LaunchContext &launch) const;

    /**
     * Record one fast-forwarded memory instruction into the warm ring;
     * a no-op unless the plan is every:N, the one mode that replays it.
     */
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

    // ---- Per-unit sleep (config.cycleSkipping) ----
    //
    // A unit (SM or partition, by unit id) that cannot do anything
    // observable next cycle stops ticking until its wakeAt:
    //  - a drained unit (SM !busy(), partition idle()) sleeps at kNever
    //    until a CTA placement (SM) or an arrival it can accept
    //    (partition);
    //  - a stalled unit sleeps until its nextEventCycle certificate, or
    //    earlier when an injection credit for a FailIcnt-frozen head (SM)
    //    or an acceptable arrival (partition) shows up. A response to a
    //    sleeping SM is delivered in the response pass, which wakes the
    //    SM for the next cycle.
    // The cycle loop walks the awake units only (awake_). A sleeper is
    // reached through its alarm (alarm_), its gate (gated_) or a pending
    // delivery (Interconnect::deliveryPending), and at wake it credits
    // its own span in bulk (wakeUnit). With cycle_skipping=0 nothing
    // sleeps: that run is the eager reference.

    /**
     * Sleep-state wakeAt of a unit only an outside stimulus can wake: the
     * certificate a drained SM or partition reports.
     */
    static constexpr Cycle kNever = Sm::kNoEvent;

    struct SleepState
    {
        Cycle from = 0;     //!< first un-ticked cycle
        Cycle wakeAt = 0;   //!< own wake cycle; kNever = outside only
    };

    /** Unit @p unit stops ticking from @p from until @p wake_at. */
    void sleepUnit(size_t unit, Cycle from, Cycle wake_at);

    /**
     * End unit @p unit's sleep; it ticks again from cycle @p resume.
     * Credits the span the eager loop would have ticked: a drained SM
     * with Sm::idleCycles (what idleCycle() adds), a busy SM with
     * Sm::skipCycles, a partition with MemPartition::skipCycles (a no-op
     * when it is idle).
     */
    void wakeUnit(size_t unit, Cycle resume);

    /**
     * The alarm came due: wake every sleeper whose wakeAt is @p now and
     * set the alarm to the earliest wakeAt of those still asleep.
     */
    void wakeByAlarm(Cycle now);

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
    Cycle wakeAtFor(size_t unit, Cycle now) const;

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
     * the run's per-PC table and each SM's counters, installed on
     * Sm::crit at construction and folded into the stats set by
     * finalizeStats().
     */
    std::unique_ptr<crit::CritStats> crit_;

    // ---- Per-unit sleep state ----

    /** Sleep state per unit id: SMs, then partitions. */
    std::vector<SleepState> sleep_;
    /**
     * Bitsets over unit ids (util/bitutil.hh). awake_: the units the
     * cycle loop ticks and puts to sleep, walked in id order.
     * gated_: the sleepers with a gate, checked every cycle — an SM whose
     * LD/ST head is frozen on FailIcnt (Interconnect::canInject, before
     * the SM pass) and a partition with room for an arrival
     * (Interconnect::hasRequest, after the arbitration). Both gate
     * inputs change only when the unit ticks, and every path that
     * touches a sleeper wakes it first, so a gated_ bit stays exact
     * while its unit sleeps.
     */
    std::vector<uint64_t> awake_;
    std::vector<uint64_t> gated_;
    /**
     * A lower bound on every sleeper's wakeAt, lowered by sleepUnit and
     * recomputed by wakeByAlarm; kNever when no sleeper has a wake cycle
     * of its own.
     */
    Cycle alarm_ = kNever;
    uint64_t dormantCycles_ = 0;

    // ---- Kernel boundaries and the functional prefix ----
    uint64_t kernelsDone_ = 0;
    std::function<void(uint64_t)> boundaryHook_;
    bool firstBoundaryFired_ = false;
    /** Host calls so far, while the capture hook is armed. */
    std::vector<HostCall> hostLog_;
    /** The prefix a warm start replays up to its capture launch. */
    std::shared_ptr<const FunctionalPrefix> resumePrefix_;
    size_t hostLogCursor_ = 0;       //!< replay position in its host log

    // ---- Sampled simulation state (config.sample) ----

    /** Parsed config_.sample; Mode::Off when sampling is disabled. */
    SamplePlan samplePlan_;

    /** Lazily created serial executor for fast-forwarded CTAs. */
    std::unique_ptr<WarpExecutor> ffExec_;

    /**
     * Bounded ring of the newest fast-forwarded accesses since the last
     * detailed window (oldest overwritten first). Cleared after each
     * window's warm-up: the window leaves real tag state behind, so
     * stale pre-window entries must not pollute the next warm-up.
     */
    static constexpr size_t kWarmRingCapacity = size_t{1} << 17;
    std::vector<WarmEntry> warmRing_;
    size_t warmHead_ = 0;    //!< oldest entry once the ring wrapped

    /** Per-launch extrapolation records, in launch order. */
    std::vector<SampleLaunch> sampleBook_;

    /**
     * Thread-instructions fast-forwarded in the launch currently being
     * split (the work the extrapolation charges to skipped launches).
     * Restored from the prefix on a warm start so the resumed run's book
     * matches the fresh run's byte for byte.
     */
    uint64_t ffLaunchWork_ = 0;

    /** Armed until the first timed work (setFfPrefixHook). */
    std::function<void(FunctionalPrefix)> ffPrefixHook_;
    /** Prefix CTAs to skip in the restore-target launch (consumed once). */
    uint64_t ffSkipCtas_ = 0;
};

} // namespace gcl::sim

#endif // GCL_SIM_GPU_HH
