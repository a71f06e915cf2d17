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
 * Delivery state: besides its delay queues the crossbar keeps each
 * endpoint's next delivery cycle in a dense array and the SMs with
 * deliveries pending in a bitset, updated at every push into and pop
 * from those queues, so the GPU's per-cycle questions (which SMs to
 * drain, whether a gated sleeper's arrival came) are array reads:
 *
 *  - smNextAt_: each SM's next delivery cycle (head of toSm_, kNone when
 *    empty), behind hasResponse();
 *  - partNextAt_: each partition's next arrival cycle (head of toPart_),
 *    behind hasRequest();
 *  - smPending_: the SMs whose toSm_ queue is non-empty, behind
 *    deliveryPending(). A push into an empty queue sets the bit and the
 *    pop that empties it clears it.
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
#include "util/bitutil.hh"

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

    /** All queues drained (used by the GPU's termination check). */
    bool
    idle() const
    {
        return injectCount_ == 0 && toPartCount_ == 0 && respQCount_ == 0 &&
               noBitSet(smPending_);
    }

    /** Requests anywhere in the request network (timeline sampling). */
    size_t reqQueued() const;

    /** Responses anywhere in the response network (timeline sampling). */
    size_t respQueued() const;

    /**
     * Bitset over SM ids (util/bitutil.hh): bit s is set while SM s has a
     * response in flight or deliverable. The GPU's response pass walks
     * only these SMs.
     */
    const std::vector<uint64_t> &deliveryPending() const
    {
        return smPending_;
    }

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
    std::vector<uint64_t> smPending_;        //!< bitset: toSm_ non-empty

    // Per-cycle arbitration scratch, sized once in the constructor so the
    // cycle loop never allocates: the partitions still open to a request
    // this cycle, and the SMs that already took a response.
    std::vector<uint8_t> partOpen_;
    std::vector<uint8_t> smUsed_;

    // Occupancy counters kept exactly in sync with the queues above so
    // idle() needs no walk over the queues (toSm_ has smPending_).
    size_t injectCount_ = 0; //!< total across injectQ_
    size_t toPartCount_ = 0; //!< total across toPart_
    size_t respQCount_ = 0;  //!< total across respQ_

    unsigned reqRrSm_ = 0;     //!< round-robin pointer, request side
    unsigned respRrPart_ = 0;  //!< round-robin pointer, response side
};

} // namespace gcl::sim

#endif // GCL_SIM_INTERCONNECT_HH
