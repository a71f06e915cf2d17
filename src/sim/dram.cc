#include "dram.hh"

#include <algorithm>

#include "guard/sim_error.hh"
#include "util/logging.hh"

namespace gcl::sim
{

void
DramChannel::push(ReqHandle req, Cycle now)
{
    gcl_sim_check(canAccept(), "dram", now, "push into a full queue");
    // FCFS: the burst occupies the channel serially; data returns a fixed
    // access latency after its burst starts. When the machine enables the
    // open-row model, a row-buffer miss adds the activate penalty to both.
    Cycle penalty = 0;
    if (config_.dramRowBytes != 0) {
        if (openRow_.empty())
            openRow_.assign(config_.dramBanks, ~uint64_t{0});
        const uint64_t line = pools_.reqs.get(req).lineAddr;
        const uint64_t bank =
            (line / config_.dramRowBytes) % config_.dramBanks;
        const uint64_t row =
            (line / config_.dramRowBytes) / config_.dramBanks;
        if (openRow_[bank] != row) {
            penalty = config_.dramActLatency;
            openRow_[bank] = row;
        }
    }
    const Cycle start = std::max(channelFreeAt_, now);
    channelFreeAt_ = start + penalty + config_.dramBurstCycles;
    GCL_TRACE(traceSink, trace::EventKind::ReqDramEnqueue, now,
              pools_.reqs.get(req).id, pools_.reqs.get(req).lineAddr,
              tracePc(pools_.reqs.get(req)), traceUnit,
              traceFlags(pools_.reqs.get(req)));
    queue_.push_back({req, start + penalty + config_.dramLatency});
}

bool
DramChannel::headReady(Cycle now) const
{
    return !queue_.empty() && queue_.front().readyAt <= now;
}

ReqHandle
DramChannel::pop()
{
    gcl_sim_check(!queue_.empty(), "dram", 0, "pop from an empty queue");
    ReqHandle req = queue_.front().req;
    queue_.pop_front();
    ++serviced_;
    return req;
}

} // namespace gcl::sim
