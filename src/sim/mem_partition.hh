/**
 * @file
 * One memory partition: the ROP pipeline in front of an L2 slice, the L2
 * tag/MSHR array, and the partition's DRAM channel (Section III).
 *
 * Requests arriving from the interconnect pay the ROP latency (Table II:
 * 120 cycles), then access the L2 slice once per cycle. Misses go to the
 * partition's DRAM channel; fills release the merged requests, which are
 * then injected into the response network.
 *
 * The partition ends the life of store requests (nothing upstream waits
 * for them): they are freed either when the L2 absorbs the write or when
 * the write burst drains from DRAM.
 */

#ifndef GCL_SIM_MEM_PARTITION_HH
#define GCL_SIM_MEM_PARTITION_HH

#include <deque>

#include "cache.hh"
#include "config.hh"
#include "delay_queue.hh"
#include "dram.hh"
#include "guard/fault.hh"
#include "guard/sim_error.hh"
#include "guard/watchdog.hh"
#include "interconnect.hh"
#include "stats.hh"

namespace gcl::sim
{

/** L2 slice + DRAM channel. */
class MemPartition
{
  public:
    MemPartition(int id, const GpuConfig &config, SimStats &stats,
                 MemPools &pools);

    /** Advance one cycle: accept, service, fill, respond. */
    void cycle(Cycle now, Interconnect &icnt);

    /** No request anywhere inside the partition. */
    bool idle() const;

    /**
     * The next cycle > @p now at which this (non-idle) partition's tick
     * could do anything observable, or ~0 when it is fully drained. A
     * pending response mutates state (an injection attempt) every cycle
     * and pins the event to now + 1. A ripe-but-stalled ROP head burns a
     * partitionStall() per cycle, but when the stall is frozen
     * (ropHeadStall_) those are the only deltas and skipCycles() credits
     * them in bulk, so the head does not pin: every partition stall
     * (FailTag/FailMshr reservations, a full DRAM queue, a blocked write)
     * un-freezes only when this partition's own DRAM head completes —
     * picked up below. Otherwise the earliest of the ROP head's maturity
     * and the DRAM head's completion is the event. Arrivals from the
     * interconnect are the interconnect's events, not this unit's.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle next = ~Cycle{0};
        if (!respPending_.empty())
            return now + 1;
        if (!ropQ_.empty()) {
            const Cycle ready = ropQ_.headReadyAt();
            if (ready > now)
                next = ready;
            else if (!ropHeadStall_)
                return now + 1;
        }
        if (!dram_.empty() && dram_.headReadyAt() < next)
            next = dram_.headReadyAt();
        if (next == ~Cycle{0})
            return next;
        return next <= now ? now + 1 : next;
    }

    /**
     * Credit the dead span [@p first, @p first + @p count) in bulk: a
     * ROP head that was ripe and frozen-stalled at span start burns one
     * partitionStall() per cycle of the span and nothing else —
     * nextEventCycle() guarantees no accept/fill/respond could have
     * happened. A head that only matures mid-span never stalls inside it
     * (maturity is itself a wake event), so there is nothing to credit.
     */
    void
    skipCycles(Cycle first, uint64_t count)
    {
        if (!ropQ_.empty() && ropQ_.headReadyAt() < first) {
            gcl_sim_check(ropHeadStall_, "part", first,
                          "partition ", id_, " credited a skipped span "
                          "with a live ROP head — nextEventCycle lied "
                          "about the span being dead");
            stats_.hot.partStalls += count;
        }
    }

    /**
     * True when the ROP pipeline can take one more arrival. Frozen while
     * the partition sleeps (nothing pops the queue), so the Gpu's wake
     * check can pair it with Interconnect::hasRequest to detect the
     * exact cycle an in-flight request must be accepted.
     */
    bool
    canAcceptArrival() const
    {
        return ropQ_.size() < config_.ropLatency + config_.partQueueDepth;
    }

    const Cache &l2() const { return l2_; }
    const DramChannel &dram() const { return dram_; }

    /**
     * Functionally warm one L2 line (sampled simulation; Cache::warm).
     * Called by the Gpu while the device is quiescent, never mid-tick.
     */
    void warmL2(uint64_t line_addr) { l2_.warm(line_addr); }

    /** Install the event sink on the partition and its DRAM channel. */
    void setTrace(trace::TraceSink *sink);

    // ---- Timeline sampling (gcl::trace) ----
    size_t ropQueued() const { return ropQ_.size(); }
    size_t dramQueued() const { return dram_.size(); }
    size_t respQueued() const { return respPending_.size(); }

    /** Snapshot for a watchdog HangReport (gcl::guard). */
    guard::PartitionHangInfo hangInfo() const;

    /** Fault oracle (gcl::guard), installed by the Gpu; null = no faults. */
    guard::FaultInjector *fault = nullptr;

  private:
    trace::TraceSink *traceSink_ = nullptr;
    /** Try to service the head of the ROP queue; false on a stall. */
    bool serviceHead(Cycle now);

    int id_;
    const GpuConfig &config_;
    SimStats &stats_;           //!< the device's one stats sink
    MemPools &pools_;

    DelayQueue<ReqHandle> ropQ_;
    Cache l2_;
    DramChannel dram_;
    std::deque<ReqHandle> respPending_;

    /**
     * True when the last serviceHead() attempt failed for a reason that
     * is deterministic until this partition's DRAM head completes: an L2
     * FailTag/FailMshr (the reservation's fill is queued in dram_), a
     * full DRAM queue (read FailIcnt or a blocked write — only a dram_
     * pop frees it). Cache::access and writeProbe mutate nothing on a
     * fail, so every retry across the span repeats the same outcome and
     * the same single partitionStall(), which skipCycles credits in
     * bulk. Never set with a fault oracle attached — an injected DRAM
     * refusal window flips the outcome mid-span and counts per-attempt
     * queries. Recomputed by every serviceHead() call.
     */
    bool ropHeadStall_ = false;
};

} // namespace gcl::sim

#endif // GCL_SIM_MEM_PARTITION_HH
