/**
 * @file
 * Streaming multiprocessor: warp schedulers, scoreboard, SP/SFU/LDST
 * function units, the coalescer and the private L1 data cache.
 *
 * The per-cycle pipeline is (Section III):
 *   1. writeback  — completed instructions release the scoreboard
 *   2. issue      — each scheduler picks one ready warp; the instruction
 *                   executes functionally at issue (DESIGN.md decision 1)
 *   3. LD/ST      — the front warp memory op injects one coalesced request
 *                   per cycle into the L1; reservation failures burn the
 *                   cycle and retry (Fig 3)
 *   4. unit accounting for Fig 4 (first-pipeline-stage occupancy)
 *
 * Memory ops and requests live in the run's MemPools and are referenced
 * by handle; the SM owns the op lifecycle (see mem_request.hh).
 */

#ifndef GCL_SIM_SM_HH
#define GCL_SIM_SM_HH

#include <deque>
#include <queue>
#include <vector>

#include "cache.hh"
#include "config.hh"
#include "crit/crit.hh"
#include "delay_queue.hh"
#include "functional.hh"
#include "guard/fault.hh"
#include "guard/watchdog.hh"
#include "interconnect.hh"
#include "mem_request.hh"
#include "stats.hh"
#include "warp.hh"

namespace gcl::sim
{

/** Maps a line address to its memory partition (set up by the Gpu). */
using PartitionMap = int (*)(uint64_t line_addr, int sm_id,
                             const GpuConfig &config);

/** One streaming multiprocessor. */
class Sm
{
  public:
    Sm(int id, const GpuConfig &config, GlobalMemory &gmem, SimStats &stats,
       MemPools &pools);

    int id() const { return id_; }

    /** Bind to a new kernel launch; all CTA slots must be free. */
    void startLaunch(const LaunchContext &launch);

    /** True when another CTA fits right now. */
    bool canTakeCta() const;

    /** Place the CTA with the given coordinates onto this SM. */
    void launchCta(uint32_t linear_id, uint32_t cx, uint32_t cy, uint32_t cz);

    /** Any resident CTA or in-flight work. */
    bool busy() const;

    /** Advance one cycle. */
    void cycle(Cycle now, Interconnect &icnt);

    /**
     * Tick the Fig 4 denominator for an idle cycle (the Gpu skips the
     * pipeline walk but the cycle still counts).
     * With the crit profiler on, the cycle's issue slots are all lost to
     * IdleNoCta so the accounting identity keeps holding on skipped SMs.
     */
    void
    idleCycle()
    {
        ++stats_.hot.smCycles;
        if (crit)
            crit->idleCycle(config_.numSchedulers);
    }

    /**
     * Credit @p count idle cycles at once — the lazy form of idleCycle()
     * a drained SM's sleep credits at wake, with identical accounting.
     */
    void
    idleCycles(uint64_t count)
    {
        stats_.hot.smCycles += count;
        if (crit)
            crit->idleCycles(config_.numSchedulers, count);
    }

    /**
     * The next cycle > @p now at which this SM's tick could do anything
     * observable, or kNoEvent when only an external stimulus (a fill from
     * the interconnect, a CTA arrival) can wake it — always the case for
     * a drained SM. The contract event-driven skipping rests on: for
     * every cycle t in (now, nextEventCycle), cycle(t, icnt) would mutate
     * nothing but the per-cycle counters skipCycles() credits in bulk.
     * Read from the ready-warp masks, so it is now + 1 exactly when a
     * scheduler could issue at now + 1 (or the LD/ST head is live).
     */
    Cycle nextEventCycle(Cycle now) const;

    /** nextEventCycle's "wake me only from outside" sentinel. */
    static constexpr Cycle kNoEvent = ~Cycle{0};

    /**
     * True when the LD/ST head's frozen failure is FailIcnt: the head
     * already passed the tag and MSHR checks, so only an injection credit
     * (a queue pop by the request arbitration) changes its outcome. The
     * Gpu puts a sleeping SM with such a head behind a gate and pairs it
     * with Interconnect::canInject to detect that credit.
     */
    bool
    ldstStalledOnIcnt() const
    {
        return ldstHeadStall_ ==
               static_cast<uint8_t>(AccessOutcome::FailIcnt);
    }

    /**
     * Credit the dead span [@p first, @p first + @p count) in bulk: the
     * per-cycle counters cycle() would have bumped had it run through the
     * span (smCycles, Fig 4 stage occupancy, crit issue slots, and — for
     * a deterministically stalled LD/ST head — the failed-retry Fig 3
     * counters), and nothing else — nextEventCycle() guarantees the span
     * is dead.
     */
    void skipCycles(Cycle first, uint64_t count);

    /**
     * A memory response arrived from the interconnect. Its fill un-freezes
     * a FailTag or FailMshr LD/ST head only when it can change the head's
     * outcome: the fill lands in the head line's L1 set, or the L1 MSHR
     * was full before it.
     */
    void receiveResponse(ReqHandle req, Cycle now);

    /** Pop and process every response deliverable to this SM this cycle. */
    void drainResponses(Cycle now, Interconnect &icnt);

    unsigned numResidentCtas() const { return residentCtas_; }

    const Cache &l1() const { return l1_; }

    /**
     * Functionally warm one L1 line (sampled simulation; Cache::warm).
     * Called by the Gpu while the device is quiescent, never mid-tick.
     */
    void warmL1(uint64_t line_addr) { l1_.warm(line_addr); }

    // ---- Timeline sampling (gcl::trace) ----
    unsigned activeWarps() const;
    size_t ldstQueued() const { return ldstQ_.size() + pendingOps_.size(); }

    /** Snapshot for a watchdog HangReport (gcl::guard). */
    guard::SmHangInfo hangInfo() const;

  private:
    // --- Issue stage ---
    void issueCycle(Cycle now);
    bool warpReady(const WarpContext &warp, Cycle now) const;
    /** warpReady minus the function-unit test: what the masks hold. */
    bool warpEligible(const WarpContext &warp) const;
    /**
     * The first cycle the unit for issue class @p cls can take an
     * instruction, as far as this SM's own state tells: 0 for barrier and
     * exit (no unit), the stage-free cycle for SP and SFU, and for memory
     * 0 while the LD/ST queue has room, else kNoEvent (it drains only
     * through its head).
     */
    Cycle unitFreeAt(uint8_t cls) const;
    /** Re-file @p slot's ready-mask bit after its warp changed. */
    void refreshReady(int slot);
    int pickWarp(unsigned scheduler, Cycle now);
    /** The pick from the ready masks; advances rrNext_ like pickByScan. */
    int pickReady(unsigned scheduler, Cycle now);
    /**
     * The reference pick: warpReady over every slot @p scheduler owns.
     * Advances @p rr_next in place of rrNext_, so checked builds can run
     * it beside pickReady and compare both the slots and the pointers.
     */
    int pickByScan(unsigned scheduler, Cycle now, unsigned &rr_next) const;
    void issueWarp(int slot, Cycle now);
    /**
     * Attribute @p count of @p scheduler's lost issue slots (crit
     * profiler only). Counts above 1 come from skipCycles: the charge is
     * provably constant across a dead span (no wake event means the
     * blocking warp, its scoreboard and the queues are all frozen), so
     * one evaluation at the span's first cycle covers every cycle of it.
     * @p now only stamps a checked build's invariant error.
     */
    void critCharge(unsigned scheduler, Cycle now, uint64_t count = 1);
    /**
     * The reference blocking warp: the oldest active slot @p scheduler
     * owns, by a scan over its slots (checked builds compare it against
     * the age list's head).
     */
    int blockingByScan(unsigned scheduler) const;

    /** Append @p slot at the young end of its scheduler's age list. */
    void ageAppend(int slot);
    /** Remove @p slot from its scheduler's age list. */
    void ageUnlink(int slot);

    // --- LD/ST unit ---
    void ldstCycle(Cycle now, Interconnect &icnt);
    /** The request the LD/ST head issues next (a global op's). */
    ReqHandle headRequest() const;
    /**
     * Checked builds (GCL_POOL_CHECKED): re-probe the L1 with the frozen
     * head's request and fail the run with an invariant SimError when the
     * outcome differs from ldstHeadStall_. @p can_inject is what the
     * eager loop would pass at this point. A no-op otherwise.
     */
    void checkFrozenHead(bool can_inject, Cycle now);
    void startMemOp(int slot, size_t pc, const ptx::Instruction &inst,
                    const StepInfo &info, Cycle now);
    void completeRequest(ReqHandle req, Cycle now);
    void finishMemOp(OpHandle op, Cycle now);

    // --- Writeback ---
    void writebackCycle(Cycle now);
    void scheduleWriteback(Cycle when, int slot, ptx::RegId reg);

    // --- CTA / warp lifecycle ---
    void warpExited(int slot);
    /** Free every live warp of the CTA in @p cta_slot from its barrier. */
    void releaseBarrier(CtaContext &cta, int cta_slot);

    int id_;
    const GpuConfig &config_;
    SimStats &stats_;           //!< the device's one stats sink
    MemPools &pools_;
    WarpExecutor executor_;
    /** issueWarp's step result, reused so a step never allocates. */
    StepInfo stepInfo_;
    Cache l1_;

    const LaunchContext *launch_ = nullptr;
    uint32_t kernelId_ = 0;   //!< interned kernel name for stat attribution
    unsigned warpsPerCta_ = 0;
    unsigned maxResidentCtas_ = 0;
    unsigned residentCtas_ = 0;

    std::vector<CtaContext> ctas_;
    std::vector<WarpContext> warps_;
    std::vector<uint64_t> warpAge_;   //!< issue-order age for GTO
    uint64_t ageCounter_ = 0;

    /**
     * With the crit profiler on, each scheduler's active warps as a
     * doubly linked list in warpAge_ order, oldest at the head: a warp is
     * appended at launchCta, moved to the tail at issueWarp (both assign
     * the newest age) and unlinked at warpExited. The head is
     * critCharge's blocking warp; the issue path never touches the list
     * when the profiler is off. -1 ends a list.
     */
    struct AgeLink
    {
        int prev = -1;
        int next = -1;
    };
    struct AgeList
    {
        int head = -1;
        int tail = -1;
    };
    std::vector<AgeLink> ageLink_;    //!< per slot
    std::vector<AgeList> ageList_;    //!< per scheduler
    std::vector<unsigned> rrNext_;    //!< per-scheduler LRR pointer
    int lastIssued_ = -1;             //!< for GTO greediness

    /**
     * Ready-warp masks, one bitset per (scheduler, issue class): bit
     * slot / numSchedulers of scheduler slot % numSchedulers is set when
     * that warp passes warpEligible, filed under the issue class of its
     * next instruction. refreshReady keeps them current at the events
     * that can change eligibility, so pickWarp only has to OR the masks
     * of the classes whose unit is free. They are the SM's only
     * issue-readiness state: nextEventCycle reads them too. Laid out
     * [(scheduler * readyWords_ + word) * kIssueClasses + class] so one
     * word's classes share a cache line.
     */
    std::vector<uint64_t> readyMask_;
    unsigned readyWords_ = 0;         //!< mask words per scheduler
    /** Per slot: the class its ready bit is filed under, or kNotReady. */
    std::vector<uint8_t> readyClass_;
    static constexpr unsigned kIssueClasses = LaunchContext::IssueExit + 1;
    static constexpr uint8_t kNotReady = 0xff;

    /** Warp memory ops; front occupies the LD/ST first stage. */
    std::deque<OpHandle> ldstQ_;
    /** Ops that left the stage but still await data. */
    std::vector<OpHandle> pendingOps_;
    /** L1 hits returning after the hit latency. */
    DelayQueue<ReqHandle> hitReturnQ_;

    struct Writeback
    {
        Cycle time;
        int slot;
        ptx::RegId reg;

        bool
        operator>(const Writeback &other) const
        {
            return time > other.time;
        }
    };
    std::priority_queue<Writeback, std::vector<Writeback>,
                        std::greater<Writeback>> wbHeap_;

    /** First-pipeline-stage busy-until markers (Fig 4). */
    Cycle spStageFreeAt_ = 0;
    Cycle sfuStageFreeAt_ = 0;

    /**
     * Last L1 access outcome seen by the LD/ST head (crit profiler only;
     * 0xff = none). Issue runs before LD/ST within a cycle, so at charge
     * time this holds the PREVIOUS cycle's outcome — exactly the
     * resource fail that kept the queue full into this cycle.
     */
    uint8_t critLastL1Outcome_ = 0xff;

    /** ldstHeadStall_ value when the head is not deterministically stalled. */
    static constexpr uint8_t kNoStall = 0xff;

    /**
     * The AccessOutcome the LD/ST head's last probe failed with, when
     * that failure is deterministic until an external event: a
     * FailTag/FailMshr/FailIcnt load with cycle skipping on and no fault
     * oracle attached. FailTag/FailMshr depend only on L1 tag/MSHR state,
     * which nothing but Cache::fill (a response delivery) can change, and
     * only a fill into the head line's set or into a full MSHR can change
     * them (receiveResponse). FailIcnt depends only on the SM's
     * injection-queue occupancy, which sits at its cap and only drains by
     * request arbitration. Cache::access mutates nothing on a fail, so
     * every retry while frozen repeats the same outcome and the same stat
     * deltas: ldstCycle counts them without probing, skipCycles credits
     * them in bulk. kNoStall otherwise (head making progress, shared ops,
     * stores and atomics, fault windows active — a fault flips outcomes
     * mid-span and counts per-attempt queries — or cycle_skipping=0, the
     * eager reference that probes every cycle). Set by a failed probe;
     * cleared by the probe a FailIcnt head makes once canInject holds and
     * by an un-freezing fill.
     */
    uint8_t ldstHeadStall_ = kNoStall;

  public:
    /** Partition mapping hook installed by the Gpu. */
    PartitionMap partitionMap = nullptr;

    /** Event sink (gcl::trace), installed by the Gpu; null = untraced. */
    trace::TraceSink *traceSink = nullptr;

    /** Fault oracle (gcl::guard), installed by the Gpu; null = no faults. */
    guard::FaultInjector *fault = nullptr;

    /**
     * This SM's crit counters (gcl::crit), installed by the Gpu; null when
     * the profiler is off — every hook hides behind this check, the same
     * near-zero-disabled-cost idiom as traceSink.
     */
    crit::SmCrit *crit = nullptr;
};

} // namespace gcl::sim

#endif // GCL_SIM_SM_HH
