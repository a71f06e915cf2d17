/**
 * @file
 * SM <-> memory-partition crossbar with finite injection buffers.
 *
 * Request side: each SM owns a bounded injection queue; a full queue is the
 * L1's "reservation fail by interconnection" (Section VI). Each cycle every
 * partition accepts at most one request and every SM transmits at most one
 * flit; transfers take icntLatency cycles. The response side is symmetric
 * with per-partition bounded response queues.
 *
 * Delivery cycles: besides its delay queues the crossbar keeps each
 * endpoint's next delivery cycle in a dense array, updated at every push
 * into and pop from those queues, so the questions asked of every
 * sleeping unit every cycle are array reads:
 *
 *  - smNextAt_: each SM's next delivery cycle (head of toSm_, kNone when
 *    empty), behind hasResponse();
 *  - partNextAt_: each partition's next arrival cycle (head of toPart_),
 *    behind hasRequest().
 *
 * nextEventCycle() takes the minimum of the two arrays. Every new push
 * into or pop from toSm_/toPart_ must update them
 * (IcntTest.MatchesReferenceModel is the oracle).
 *
 * Threading (sim_threads > 1): the endpoint queues are strictly
 * per-unit — an SM only touches injectQ_/toSm_ of its own id, a partition
 * only toPart_/respQ_ of its own id — so the compute phase mutates
 * disjoint state. Each delivery cycle has the owner of its queue's pops:
 * an SM worker updates its own SM's entry (popResponse), a partition its
 * own (popRequest), and the coordinator's arbitration both at pushes. The
 * arbitration that moves flits *between* units runs on the coordinator,
 * split around the compute phase:
 *
 *  - beginCycle() runs the response-side arbitration. In a serial tick it
 *    runs after the SMs, but neither SMs nor partitions touch respQ_/toSm_
 *    mid-cycle (responses enter respQ_ only in *earlier* cycles and leave
 *    toSm_ only via this cycle's drain, which sees entries icnt_latency
 *    cycles old), so hoisting it before the compute phase is exact.
 *  - commitCycle() runs the request-side arbitration after the compute
 *    phase, when this cycle's injections exist — the position a serial
 *    tick gives it. One correction: serially it runs *before* partitions
 *    pop their head request, so the credit check adds back this cycle's
 *    pops (popsThisCycle_) to see the same toPart_ occupancy.
 *
 * The legacy cycle() (request then response arbitration, between SMs and
 * partitions) remains the serial path; both orderings are cycle-exact to
 * it, which is what makes sim_threads a pure wall-clock knob.
 *
 * Trace events are emitted through the calling unit's sink (inject() from
 * the SM, respond() from the partition) so staged event order matches the
 * serial emission order.
 */

#ifndef GCL_SIM_INTERCONNECT_HH
#define GCL_SIM_INTERCONNECT_HH

#include <atomic>
#include <deque>
#include <vector>

#include "config.hh"
#include "delay_queue.hh"
#include "mem_request.hh"
#include "trace/stage_sink.hh"
#include "trace/trace.hh"

namespace gcl::snap
{
class SnapWriter;
class SnapReader;
} // namespace gcl::snap

namespace gcl::sim
{

/** Crossbar interconnect between numSms SMs and numPartitions partitions. */
class Interconnect
{
  public:
    Interconnect(const GpuConfig &config, MemPools &pools);

    // ---- Request path (SM side) ----

    /** True when SM @p sm has room to inject one more request. */
    bool
    canInject(int sm) const
    {
        return injectQ_[static_cast<size_t>(sm)].size() <
               config_.icntInjectQueueDepth;
    }

    /** Queue @p req for transport; stamps tInjected. */
    void inject(ReqHandle req, Cycle now, trace::StageSink *sink = nullptr);

    // ---- Request path (partition side) ----

    /** True when a request has arrived for partition @p part. */
    bool
    hasRequest(int part, Cycle now) const
    {
        return partNextAt_[static_cast<size_t>(part)] <= now;
    }

    /** Pop the next arrived request for partition @p part. */
    ReqHandle popRequest(int part, Cycle now);

    // ---- Response path (partition side) ----

    /** True when partition @p part has room to queue one more response. */
    bool canRespond(int part) const;

    /** Queue @p req's response for transport; stamps tRespDepart. */
    void respond(ReqHandle req, Cycle now, trace::StageSink *sink = nullptr);

    // ---- Response path (SM side) ----

    /** True when a response is deliverable to SM @p sm. */
    bool
    hasResponse(int sm, Cycle now) const
    {
        return smNextAt_[static_cast<size_t>(sm)] <= now;
    }

    ReqHandle popResponse(int sm, Cycle now);

    /** Advance arbitration serially: request side, then response side. */
    void cycle(Cycle now);

    /** Parallel tick, pre-compute half: response-side arbitration. */
    void beginCycle(Cycle now);

    /** Parallel tick, commit half: request-side arbitration. */
    void commitCycle(Cycle now);

    /** All queues drained (used by the GPU's termination check). O(1). */
    bool
    idle() const
    {
        return injectCount_.load(std::memory_order_relaxed) == 0 &&
               toPartCount_.load(std::memory_order_relaxed) == 0 &&
               respQCount_.load(std::memory_order_relaxed) == 0 &&
               toSmCount_.load(std::memory_order_relaxed) == 0;
    }

    /** Requests anywhere in the request network (timeline sampling). */
    size_t reqQueued() const;

    /** Responses anywhere in the response network (timeline sampling). */
    size_t respQueued() const;

    /**
     * True when any SM-bound response is in flight or deliverable — the
     * gate for the GPU's per-cycle response drain loop. O(1).
     */
    bool
    anyResponsesInFlight() const
    {
        return toSmCount_.load(std::memory_order_relaxed) != 0;
    }

    /**
     * The next cycle > @p now at which ticking the crossbar could move a
     * flit, or ~0 when it is empty. Anything waiting for arbitration
     * (injection or response queues) can move next cycle; otherwise the
     * earliest in-flight delivery (the minimum of smNextAt_ and
     * partNextAt_) is the event. The round-robin pointers
     * also advance every cycle, but skipAdvance() replays them exactly,
     * so they do not pin the event.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Credit a skipped span of @p count cycles: both round-robin pointers
     * advance once per cycle whether or not any flit moves, so a jump
     * must advance them by the span length to leave arbitration state
     * exactly as the cycle-by-cycle loop would have.
     */
    void
    skipAdvance(uint64_t count)
    {
        reqRrSm_ = static_cast<unsigned>(
            (reqRrSm_ + count) % config_.numSms);
        respRrPart_ = static_cast<unsigned>(
            (respRrPart_ + count) % config_.numPartitions);
    }

    /**
     * Serialize the crossbar's persistent state — the two round-robin
     * arbitration pointers. Only legal when idle() (kernel boundary): the
     * queues are empty then, so the pointers are the sole state that
     * shapes future arbitration order.
     */
    void save(snap::SnapWriter &out) const;

    /**
     * Restore state captured by save().
     *
     * @throws SimError{Kind::Snapshot} when a round-robin pointer is not
     *         below its endpoint count.
     */
    void load(snap::SnapReader &in);

  private:
    /** smNextAt_/partNextAt_ value of an empty delivery queue. */
    static constexpr Cycle kNone = ~Cycle{0};

    void requestArbitration(Cycle now, bool add_back_pops);
    void responseArbitration(Cycle now);

    const GpuConfig &config_;
    MemPools &pools_;

    std::vector<std::deque<ReqHandle>> injectQ_;   //!< per SM
    std::vector<DelayQueue<ReqHandle>> toPart_;    //!< per partition
    std::vector<std::deque<ReqHandle>> respQ_;     //!< per partition
    std::vector<DelayQueue<ReqHandle>> toSm_;      //!< per SM

    /**
     * Requests each partition popped this cycle; commitCycle() adds them
     * back so the credit check sees the occupancy the serial arbitration
     * (which runs before the partitions) would have seen.
     */
    std::vector<uint8_t> popsThisCycle_;

    // Delivery cycles (see the file comment), exactly in sync with the
    // delay queues above.
    std::vector<Cycle> smNextAt_;            //!< per SM: toSm_ head ready
    std::vector<Cycle> partNextAt_;          //!< per partition: toPart_ head

    // Per-cycle arbitration scratch, sized once in the constructor so the
    // cycle loop never allocates: the partitions still open to a request
    // this cycle, and the SMs that already took a response.
    std::vector<uint8_t> partOpen_;
    std::vector<uint8_t> smUsed_;

    // Occupancy counters kept exactly in sync with the queues above so
    // idle()/anyResponsesInFlight() — called every cycle by the GPU loop —
    // are O(1) instead of O(units). Relaxed atomics: under the parallel
    // tick, inject()/popResponse() run on SM workers while
    // respond()/popRequest() run on the partition pass, so the updates
    // race on the cache line; the totals stay deterministic because
    // increments commute, and every read happens in a serial phase after
    // the tick barrier's release/acquire edge.
    std::atomic<size_t> injectCount_{0}; //!< total across injectQ_
    std::atomic<size_t> toPartCount_{0}; //!< total across toPart_
    std::atomic<size_t> respQCount_{0};  //!< total across respQ_
    std::atomic<size_t> toSmCount_{0};   //!< total across toSm_

    unsigned reqRrSm_ = 0;     //!< round-robin pointer, request side
    unsigned respRrPart_ = 0;  //!< round-robin pointer, response side
};

} // namespace gcl::sim

#endif // GCL_SIM_INTERCONNECT_HH
