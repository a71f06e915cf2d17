#include "mem_partition.hh"

#include "guard/sim_error.hh"
#include "util/logging.hh"

namespace gcl::sim
{

MemPartition::MemPartition(int id, const GpuConfig &config, SimStats &stats,
                           MemPools &pools)
    : id_(id), config_(config), stats_(stats), pools_(pools),
      l2_("l2p" + std::to_string(id), config.l2, pools,
          &MemRequest::nextWaitingL2),
      dram_(config, pools)
{
    ropQ_.reserve(config.ropLatency + config.partQueueDepth);
}

void
MemPartition::setTrace(trace::TraceSink *sink)
{
    traceSink_ = sink;
    dram_.traceSink = sink;
    dram_.traceUnit = static_cast<int16_t>(id_);
}

bool
MemPartition::serviceHead(Cycle now)
{
    const ReqHandle req_handle = ropQ_.peek();
    MemRequest &req = pools_.reqs.get(req_handle);

    ropHeadStall_ = false;

    // Injected DRAM refusal window (gcl::guard): the channel pretends to
    // be full, stalling the ROP head like real DRAM-queue backpressure.
    const bool dram_ok =
        dram_.canAccept() && !(fault && fault->dramRefused(now));

    if (req.isWrite) {
        // Writes that hit in the L2 are absorbed (a write-back cache would
        // coalesce them); a write miss installs the line (write-allocate
        // without a fetch) and forwards one burst to DRAM. No response is
        // generated either way.
        if (l2_.writeProbe(req.lineAddr)) {
            // Folded into the stats set at finalize.
            ++stats_.hot.l2WriteAbsorbed;
            ropQ_.pop();
            pools_.reqs.free(req_handle);
            return true;
        }
        if (!dram_ok) {
            // Frozen until a dram_ pop makes room (see ropHeadStall_).
            if (!fault)
                ropHeadStall_ = true;
            return false;
        }
        l2_.installValid(req.lineAddr);
        dram_.push(req_handle, now);
        ropQ_.pop();
        return true;
    }

    if (req.isAtomic) {
        // Atomics are executed at the partition's ROP units; they bypass
        // the L2 tags and respond after the (already paid) ROP latency.
        req.tArriveL2 = now;
        req.tL2Done = now;
        req.level = ServiceLevel::L2;
        ++stats_.hot.l2Atomics;
        GCL_TRACE(traceSink_, trace::EventKind::ReqL2Done, now, req.id,
                  req.lineAddr, tracePc(req), static_cast<int16_t>(id_),
                  traceFlags(req));
        respPending_.push_back(req_handle);
        ropQ_.pop();
        return true;
    }

    // Read access to the L2 slice.
    const AccessOutcome outcome = l2_.access(req_handle, dram_ok);
    // A stalled head retries every cycle; dedupe identical fails so trace
    // volume scales with outcome changes, not stall lengths.
    if (GCL_TRACE_ACTIVE(traceSink_) &&
        req.traceLastFail != static_cast<uint8_t>(outcome)) {
        req.traceLastFail = static_cast<uint8_t>(outcome);
        traceSink_->emit(trace::EventKind::ReqL2Access, now, req.id,
                         req.lineAddr, tracePc(req),
                         static_cast<int16_t>(id_),
                         traceFlags(req) |
                             trace::packOutcome(
                                 static_cast<unsigned>(outcome)));
    }
    switch (outcome) {
      case AccessOutcome::Hit:
        req.tArriveL2 = now;
        req.tL2Done = now;
        req.level = ServiceLevel::L2;
        stats_.l2Access(id_, req.nonDet, false);
        respPending_.push_back(req_handle);
        ropQ_.pop();
        return true;
      case AccessOutcome::HitReserved:
        req.tArriveL2 = now;
        req.level = ServiceLevel::Dram;
        stats_.l2Access(id_, req.nonDet, true);
        ropQ_.pop();
        return true;
      case AccessOutcome::Miss:
        req.tArriveL2 = now;
        req.tDramEnq = now;
        req.level = ServiceLevel::Dram;
        stats_.l2Access(id_, req.nonDet, true);
        dram_.push(req_handle, now);
        ropQ_.pop();
        return true;
      case AccessOutcome::FailTag:
      case AccessOutcome::FailMshr:
      case AccessOutcome::FailIcnt:
        // Frozen until this partition's DRAM head completes: a fill
        // releases the tag/MSHR reservation, a pop frees the queue slot
        // the miss needs (see ropHeadStall_).
        if (!fault)
            ropHeadStall_ = true;
        return false;
    }
    return false;
}

void
MemPartition::cycle(Cycle now, Interconnect &icnt)
{
    // 1. Accept at most one arrival from the interconnect into the ROP
    //    pipeline. The occupancy bound allows the pipeline to stay fully
    //    streamed (ropLatency requests in flight) plus a small mature
    //    backlog; beyond that the partition stops draining the
    //    interconnect, whose finite buffers push the congestion back to
    //    the L1s as reservation fails.
    if (ropQ_.size() < config_.ropLatency + config_.partQueueDepth &&
        icnt.hasRequest(id_, now)) {
        const ReqHandle req_handle = icnt.popRequest(id_, now);
        GCL_TRACE(traceSink_, trace::EventKind::ReqRopEnqueue, now,
                  pools_.reqs.get(req_handle).id,
                  pools_.reqs.get(req_handle).lineAddr,
                  tracePc(pools_.reqs.get(req_handle)),
                  static_cast<int16_t>(id_),
                  traceFlags(pools_.reqs.get(req_handle)));
        ropQ_.push(req_handle, now + config_.ropLatency);
    }

    // 2. Service the ROP head. On a resource stall the request stays at
    //    the head and the cycle is wasted (Fig 5's "wasted cycles in L2
    //    and DRAMs").
    if (ropQ_.headReady(now) && !serviceHead(now))
        stats_.partitionStall();

    // 3. Drain DRAM returns: fills release merged readers; drained write
    //    bursts end their request's life. A pop ends whatever frozen
    //    stall serviceHead() recorded in step 2 *this same cycle* — the
    //    fill may have released the head's reservation or freed the
    //    queue slot it needs — so the freeze flag must not survive into
    //    nextEventCycle()'s end-of-cycle reading.
    while (dram_.headReady(now)) {
        ropHeadStall_ = false;
        const ReqHandle req_handle = dram_.pop();
        if (pools_.reqs.get(req_handle).isWrite) {
            pools_.reqs.free(req_handle);
            continue;
        }
        ReqHandle waiting = l2_.fill(pools_.reqs.get(req_handle).lineAddr);
        while (waiting != kNullHandle) {
            MemRequest &w = pools_.reqs.get(waiting);
            const ReqHandle next = w.nextWaitingL2;
            w.tL2Done = now;
            w.level = ServiceLevel::Dram;
            GCL_TRACE(traceSink_, trace::EventKind::ReqL2Done, now,
                      w.id, w.lineAddr, tracePc(w),
                      static_cast<int16_t>(id_), traceFlags(w));
            respPending_.push_back(waiting);
            waiting = next;
        }
    }

    // 4. Inject at most one response per cycle into the response network.
    if (!respPending_.empty() && icnt.canRespond(id_)) {
        icnt.respond(respPending_.front(), now, traceSink_);
        respPending_.pop_front();
    }
}

bool
MemPartition::idle() const
{
    return ropQ_.empty() && dram_.empty() && respPending_.empty();
}

guard::PartitionHangInfo
MemPartition::hangInfo() const
{
    guard::PartitionHangInfo info;
    info.partition = id_;
    info.ropQueued = ropQ_.size();
    info.dramQueued = dram_.size();
    info.respQueued = respPending_.size();
    info.mshrOccupancy = l2_.mshrOccupancy();
    info.reservedLines = l2_.reservedLines();
    return info;
}

} // namespace gcl::sim
