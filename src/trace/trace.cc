#include "trace.hh"

#include "util/logging.hh"

namespace gcl::trace
{

const char *
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::OpIssue: return "op.issue";
      case EventKind::OpDone: return "op.done";
      case EventKind::ReqL1Access: return "req.l1_access";
      case EventKind::ReqInject: return "req.inject";
      case EventKind::ReqRopEnqueue: return "req.rop_enqueue";
      case EventKind::ReqL2Access: return "req.l2_access";
      case EventKind::ReqDramEnqueue: return "req.dram_enqueue";
      case EventKind::ReqL2Done: return "req.l2_done";
      case EventKind::ReqRespDepart: return "req.resp_depart";
      case EventKind::ReqComplete: return "req.complete";
      case EventKind::Coalesce: return "coalesce";
      case EventKind::Counter: return "counter";
    }
    return "unknown";
}

const char *
toString(CounterId id)
{
    switch (id) {
      case CounterId::ResidentCtas: return "resident_ctas";
      case CounterId::ActiveWarps: return "active_warps";
      case CounterId::LdstQueued: return "ldst_queued";
      case CounterId::L1MshrOccupancy: return "l1_mshr_occupancy";
      case CounterId::IcntReqQueued: return "icnt_req_queued";
      case CounterId::IcntRespQueued: return "icnt_resp_queued";
      case CounterId::RopQueued: return "rop_queued";
      case CounterId::DramQueued: return "dram_queued";
      case CounterId::NumCounters: break;
    }
    return "unknown";
}

TraceSink::TraceSink(DrainFn drain, size_t capacity)
    : buf_(capacity == 0 ? 1 : capacity), drain_(std::move(drain))
{
    gcl_assert(drain_ != nullptr, "TraceSink without a drain");
}

void
TraceSink::flush()
{
    if (count_ > 0)
        drain_(buf_.data(), count_);
    count_ = 0;
}

} // namespace gcl::trace
