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
     * pipeline walk but the cycle still counts, in this SM's shard).
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
     * used by the active-unit tracking and the event-driven skip, with
     * identical accounting.
     */
    void
    idleCycles(uint64_t count)
    {
        stats_.hot.smCycles += count;
        if (crit)
            crit->idleCycles(config_.numSchedulers, count);
    }

    /**
     * The next cycle > @p now at which this (busy) SM's tick could do
     * anything observable, or kNoEvent when only an external stimulus (a
     * fill from the interconnect, a CTA arrival) can wake it. The
     * contract event-driven skipping rests on: for every cycle t in
     * (now, nextEventCycle), cycle(t, icnt) would mutate nothing but the
     * per-cycle counters skipCycles() credits in bulk.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        // A dirty issue scan can issue next cycle. A queued LD/ST head
        // retries every cycle too — but when the last retry failed on a
        // frozen L1 resource (ldstHeadStall_), the retry outcome and its
        // stat deltas are constant until a fill arrives, and fills ride
        // interconnect/partition events; skipCycles credits the retries
        // in bulk, so the head does not pin the clock.
        if (issueDirty_ ||
            (!ldstQ_.empty() && ldstHeadStall_ == kNoStall))
            return now + 1;
        Cycle next = kNoEvent;
        if (!wbHeap_.empty())
            next = wbHeap_.top().time;
        if (!hitReturnQ_.empty() && hitReturnQ_.headReadyAt() < next)
            next = hitReturnQ_.headReadyAt();
        // pendingOps_ only advance when a response arrives; the response's
        // delivery is the interconnect's event, not this SM's.
        return next <= now ? now + 1 : next;
    }

    /** nextEventCycle's "wake me only from outside" sentinel. */
    static constexpr Cycle kNoEvent = ~Cycle{0};

    /**
     * True when the LD/ST head's frozen failure is FailIcnt — the one
     * stall an L1 fill cannot clear. The Gpu pairs this with
     * Interconnect::canInject to detect the injection-credit event that
     * un-freezes the head (a queue pop by the request arbitration).
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

    /** A memory response arrived from the interconnect. */
    void receiveResponse(ReqHandle req, Cycle now);

    /** Pop and process every response deliverable to this SM this cycle. */
    void drainResponses(Cycle now, Interconnect &icnt);

    /**
     * Defer this SM's global stores/atomics to commitStagedWrites() (the
     * deterministic-tick write protocol; see functional.hh). The Gpu
     * enables this on every SM it owns, at every thread count, so results
     * are identical whatever sim_threads is.
     */
    void enableWriteStaging() { executor_.setStaging(&stagedWrites_); }

    /** Apply this cycle's staged writes; called by the Gpu in SM-id order. */
    void commitStagedWrites() { executor_.commitStaged(stagedWrites_); }

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

    /**
     * Serialize the SM state that survives a kernel launch: the GTO age
     * counter, the issue-scan dirty flag, the crit bookkeeping byte, the
     * function-unit busy-until markers and the L1 tag array. Only legal
     * when !busy() — CTA slots, LD/ST queues and writebacks must all be
     * drained (kernel boundary).
     */
    void save(snap::SnapWriter &out) const;

    /** Restore state captured by save(). */
    void load(snap::SnapReader &in);

  private:
    // --- Issue stage ---
    void issueCycle(Cycle now);
    bool warpReady(const WarpContext &warp, Cycle now) const;
    /** warpReady minus the function-unit test: what the masks hold. */
    bool warpEligible(const WarpContext &warp) const;
    /** Can the unit for issue class @p cls take an instruction now? */
    bool unitFree(uint8_t cls, Cycle now) const;
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
     */
    void critCharge(unsigned scheduler, Cycle now, uint64_t count = 1);

    // --- LD/ST unit ---
    void ldstCycle(Cycle now, Interconnect &icnt);
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
    SimStats &simStats_;        //!< root object (kernel interning only)
    SimStats::Shard &stats_;    //!< this SM's private counter shard
    MemPools &pools_;
    WarpExecutor executor_;
    Cache l1_;

    /** This cycle's deferred global stores/atomics (enableWriteStaging). */
    std::vector<PendingAccess> stagedWrites_;

    const LaunchContext *launch_ = nullptr;
    uint32_t kernelId_ = 0;   //!< interned kernel name for stat attribution
    unsigned warpsPerCta_ = 0;
    unsigned maxResidentCtas_ = 0;
    unsigned residentCtas_ = 0;

    std::vector<CtaContext> ctas_;
    std::vector<WarpContext> warps_;
    std::vector<uint64_t> warpAge_;   //!< issue-order age for GTO
    uint64_t ageCounter_ = 0;
    std::vector<unsigned> rrNext_;    //!< per-scheduler LRR pointer
    int lastIssued_ = -1;             //!< for GTO greediness

    /**
     * Ready-warp masks, one bitset per (scheduler, issue class): bit
     * slot / numSchedulers of scheduler slot % numSchedulers is set when
     * that warp passes warpEligible, filed under the issue class of its
     * next instruction. refreshReady keeps them current at the events
     * that can change eligibility, so pickWarp only has to OR the masks
     * of the classes whose unit is free. Laid out
     * [(scheduler * readyWords_ + word) * kIssueClasses + class] so one
     * word's classes share a cache line.
     */
    std::vector<uint64_t> readyMask_;
    unsigned readyWords_ = 0;         //!< mask words per scheduler
    /** Per slot: the class its ready bit is filed under, or kNotReady. */
    std::vector<uint8_t> readyClass_;
    static constexpr unsigned kIssueClasses = LaunchContext::IssueExit + 1;
    static constexpr uint8_t kNotReady = 0xff;
    /**
     * False when the last issue scan found nothing and no wake event
     * (writeback, barrier release, LD/ST drain, CTA arrival, issue) has
     * happened since — the scan can be skipped.
     */
    bool issueDirty_ = true;

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
     * The AccessOutcome the LD/ST head's last retry failed with, when
     * that failure is deterministic until an external event: a
     * FailTag/FailMshr/FailIcnt load with no fault oracle attached.
     * FailTag/FailMshr depend only on L1 tag/MSHR state, which nothing
     * but Cache::fill (a response delivery) can change; FailIcnt depends
     * only on the SM's injection-queue occupancy, which sits at its cap
     * and only drains by request arbitration (a pop flips canInject and
     * ends the span). Cache::access mutates nothing on a fail, so every
     * retry across the span repeats the same outcome and the same stat
     * deltas, which skipCycles credits in bulk. kNoStall otherwise (head
     * making progress, shared ops, or fault windows active — a fault
     * flips outcomes mid-span and counts per-attempt queries).
     * Recomputed by every ldstCycle retry; cleared on response arrival.
     */
    uint8_t ldstHeadStall_ = kNoStall;

  public:
    /** Partition mapping hook installed by the Gpu. */
    PartitionMap partitionMap = nullptr;

    /**
     * Per-SM staging sink (gcl::trace), installed by the Gpu; null when
     * untraced. Passthrough at sim_threads == 1, buffered otherwise.
     */
    trace::StageSink *traceSink = nullptr;

    /** Fault oracle (gcl::guard), installed by the Gpu; null = no faults. */
    guard::FaultInjector *fault = nullptr;

    /**
     * This SM's crit shard (gcl::crit), installed by the Gpu; null when
     * the profiler is off — every hook hides behind this check, the same
     * near-zero-disabled-cost idiom as traceSink.
     */
    crit::SmCrit *crit = nullptr;
};

} // namespace gcl::sim

#endif // GCL_SIM_SM_HH
