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
 * Every new push into or pop from toSm_/toPart_ must update them
 * (IcntTest.MatchesReferenceModel is the oracle).
 *
 * Trace events are emitted through the calling unit's sink (inject() from
 * the SM, respond() from the partition).
 */

#ifndef GCL_SIM_INTERCONNECT_HH
#define GCL_SIM_INTERCONNECT_HH

#include <deque>
#include <vector>

#include "config.hh"
#include "delay_queue.hh"
#include "mem_request.hh"
#include "trace/trace.hh"

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
    void inject(ReqHandle req, Cycle now, trace::TraceSink *sink = nullptr);

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
    void respond(ReqHandle req, Cycle now, trace::TraceSink *sink = nullptr);

    // ---- Response path (SM side) ----

    /** True when a response is deliverable to SM @p sm. */
    bool
    hasResponse(int sm, Cycle now) const
    {
        return smNextAt_[static_cast<size_t>(sm)] <= now;
    }

    ReqHandle popResponse(int sm, Cycle now);

    /** Advance arbitration: request side, then response side. */
    void cycle(Cycle now);

    /** All queues drained (used by the GPU's termination check). O(1). */
    bool
    idle() const
    {
        return injectCount_ == 0 && toPartCount_ == 0 && respQCount_ == 0 &&
               toSmCount_ == 0;
    }

    /** Requests anywhere in the request network (timeline sampling). */
    size_t reqQueued() const;

    /** Responses anywhere in the response network (timeline sampling). */
    size_t respQueued() const;

    /**
     * True when any SM-bound response is in flight or deliverable — the
     * gate for the GPU's per-cycle response drain loop. O(1).
     */
    bool anyResponsesInFlight() const { return toSmCount_ != 0; }

  private:
    /** smNextAt_/partNextAt_ value of an empty delivery queue. */
    static constexpr Cycle kNone = ~Cycle{0};

    void requestArbitration(Cycle now);
    void responseArbitration(Cycle now);

    const GpuConfig &config_;
    MemPools &pools_;

    std::vector<std::deque<ReqHandle>> injectQ_;   //!< per SM
    std::vector<DelayQueue<ReqHandle>> toPart_;    //!< per partition
    std::vector<std::deque<ReqHandle>> respQ_;     //!< per partition
    std::vector<DelayQueue<ReqHandle>> toSm_;      //!< per SM

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
    // are O(1) instead of O(units).
    size_t injectCount_ = 0; //!< total across injectQ_
    size_t toPartCount_ = 0; //!< total across toPart_
    size_t respQCount_ = 0;  //!< total across respQ_
    size_t toSmCount_ = 0;   //!< total across toSm_

    unsigned reqRrSm_ = 0;     //!< round-robin pointer, request side
    unsigned respRrPart_ = 0;  //!< round-robin pointer, response side
};

} // namespace gcl::sim

#endif // GCL_SIM_INTERCONNECT_HH
