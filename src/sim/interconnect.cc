#include "interconnect.hh"

#include <algorithm>

#include "guard/sim_error.hh"
#include "snap/io.hh"
#include "util/logging.hh"

namespace gcl::sim
{

Interconnect::Interconnect(const GpuConfig &config, MemPools &pools)
    : config_(config), pools_(pools),
      injectQ_(config.numSms),
      toPart_(config.numPartitions),
      respQ_(config.numPartitions),
      toSm_(config.numSms),
      popsThisCycle_(config.numPartitions, 0),
      smUsed_(config.numSms, 0),
      partUsed_(config.numPartitions, 0)
{
    // Pre-size the delay rings to their credit-limited worst case so they
    // never regrow mid-run.
    for (auto &q : toPart_)
        q.reserve(config.partQueueDepth);
    for (auto &q : toSm_)
        q.reserve(config.numPartitions * config.icntRespQueueDepth +
                  config.icntLatency);
}

bool
Interconnect::canInject(int sm) const
{
    return injectQ_[static_cast<size_t>(sm)].size() <
           config_.icntInjectQueueDepth;
}

void
Interconnect::inject(ReqHandle req, Cycle now, trace::StageSink *sink)
{
    MemRequest &r = pools_.reqs.get(req);
    gcl_sim_check(canInject(r.smId), "icnt", now,
                  "inject into a full queue");
    r.tInjected = now;
    GCL_TRACE(sink, trace::EventKind::ReqInject, now, r.id,
              r.lineAddr, tracePc(r),
              static_cast<int16_t>(r.smId), traceFlags(r));
    injectQ_[static_cast<size_t>(r.smId)].push_back(req);
    injectCount_.fetch_add(1, std::memory_order_relaxed);
}

bool
Interconnect::hasRequest(int part, Cycle now) const
{
    return toPart_[static_cast<size_t>(part)].headReady(now);
}

ReqHandle
Interconnect::popRequest(int part, Cycle now)
{
    gcl_sim_check(hasRequest(part, now), "icnt", now,
                  "popRequest with none ready");
    ++popsThisCycle_[static_cast<size_t>(part)];
    toPartCount_.fetch_sub(1, std::memory_order_relaxed);
    return toPart_[static_cast<size_t>(part)].pop();
}

bool
Interconnect::canRespond(int part) const
{
    return respQ_[static_cast<size_t>(part)].size() <
           config_.icntRespQueueDepth;
}

void
Interconnect::respond(ReqHandle req, Cycle now, trace::StageSink *sink)
{
    MemRequest &r = pools_.reqs.get(req);
    gcl_sim_check(canRespond(r.partition), "icnt", now,
                  "respond into a full queue");
    r.tRespDepart = now;
    GCL_TRACE(sink, trace::EventKind::ReqRespDepart, now, r.id,
              r.lineAddr, tracePc(r),
              static_cast<int16_t>(r.partition), traceFlags(r));
    respQ_[static_cast<size_t>(r.partition)].push_back(req);
    respQCount_.fetch_add(1, std::memory_order_relaxed);
}

bool
Interconnect::hasResponse(int sm, Cycle now) const
{
    return toSm_[static_cast<size_t>(sm)].headReady(now);
}

ReqHandle
Interconnect::popResponse(int sm, Cycle now)
{
    gcl_sim_check(hasResponse(sm, now), "icnt", now,
                  "popResponse with none ready");
    toSmCount_.fetch_sub(1, std::memory_order_relaxed);
    return toSm_[static_cast<size_t>(sm)].pop();
}

void
Interconnect::requestArbitration(Cycle now, bool add_back_pops)
{
    // Request side: every partition accepts at most one flit, every SM
    // transmits at most one flit, round-robin over SMs for fairness.
    // The round-robin pointers advance whether or not the loops run: an
    // idle cycle must leave arbitration state exactly as if the loop had
    // executed and matched nothing.
    const unsigned num_sms = config_.numSms;

    if (injectCount_.load(std::memory_order_relaxed) != 0) {
        std::fill(smUsed_.begin(), smUsed_.end(), 0);
        std::fill(partUsed_.begin(), partUsed_.end(), 0);
        for (unsigned i = 0; i < num_sms; ++i) {
            const unsigned sm = (reqRrSm_ + i) % num_sms;
            auto &q = injectQ_[sm];
            if (q.empty() || smUsed_[sm])
                continue;
            const int part = pools_.reqs.get(q.front()).partition;
            if (partUsed_[static_cast<size_t>(part)])
                continue;
            // Finite partition input buffers: without a credit the flit
            // stays in the SM's injection queue, which eventually surfaces
            // at the L1 as a reservation fail by interconnection
            // (Section VI). When arbitrating after the partitions ran
            // (commitCycle), add this cycle's pops back: the serial
            // arbitration point precedes them.
            const size_t occupancy =
                toPart_[static_cast<size_t>(part)].size() +
                (add_back_pops ? popsThisCycle_[static_cast<size_t>(part)]
                               : 0);
            if (occupancy >= config_.partQueueDepth)
                continue;
            partUsed_[static_cast<size_t>(part)] = 1;
            smUsed_[sm] = 1;
            toPart_[static_cast<size_t>(part)].push(
                q.front(), now + config_.icntLatency);
            q.pop_front();
            injectCount_.fetch_sub(1, std::memory_order_relaxed);
            toPartCount_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    reqRrSm_ = (reqRrSm_ + 1) % num_sms;
}

void
Interconnect::responseArbitration(Cycle now)
{
    // Response side, symmetric, round-robin over partitions.
    const unsigned num_parts = config_.numPartitions;

    if (respQCount_.load(std::memory_order_relaxed) != 0) {
        std::fill(smUsed_.begin(), smUsed_.end(), 0);
        std::fill(partUsed_.begin(), partUsed_.end(), 0);
        for (unsigned i = 0; i < num_parts; ++i) {
            const unsigned part = (respRrPart_ + i) % num_parts;
            auto &q = respQ_[part];
            if (q.empty() || partUsed_[part])
                continue;
            const int sm = pools_.reqs.get(q.front()).smId;
            if (smUsed_[static_cast<size_t>(sm)])
                continue;
            smUsed_[static_cast<size_t>(sm)] = 1;
            partUsed_[part] = 1;
            toSm_[static_cast<size_t>(sm)].push(q.front(),
                                                now + config_.icntLatency);
            q.pop_front();
            respQCount_.fetch_sub(1, std::memory_order_relaxed);
            toSmCount_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    respRrPart_ = (respRrPart_ + 1) % num_parts;
}

void
Interconnect::cycle(Cycle now)
{
    std::fill(popsThisCycle_.begin(), popsThisCycle_.end(), 0);
    requestArbitration(now, /*add_back_pops=*/false);
    responseArbitration(now);
}

void
Interconnect::beginCycle(Cycle now)
{
    std::fill(popsThisCycle_.begin(), popsThisCycle_.end(), 0);
    responseArbitration(now);
}

void
Interconnect::commitCycle(Cycle now)
{
    requestArbitration(now, /*add_back_pops=*/true);
}

size_t
Interconnect::reqQueued() const
{
    size_t total = 0;
    for (const auto &q : injectQ_)
        total += q.size();
    for (const auto &q : toPart_)
        total += q.size();
    return total;
}

size_t
Interconnect::respQueued() const
{
    size_t total = 0;
    for (const auto &q : respQ_)
        total += q.size();
    for (const auto &q : toSm_)
        total += q.size();
    return total;
}

Cycle
Interconnect::nextEventCycle(Cycle now) const
{
    // Waiting arbitration can move a flit next cycle; otherwise the
    // earliest in-flight delivery (to either side) is the event.
    if (injectCount_.load(std::memory_order_relaxed) != 0 ||
        respQCount_.load(std::memory_order_relaxed) != 0)
        return now + 1;
    Cycle next = ~Cycle{0};
    for (const auto &q : toPart_)
        if (!q.empty() && q.headReadyAt() < next)
            next = q.headReadyAt();
    for (const auto &q : toSm_)
        if (!q.empty() && q.headReadyAt() < next)
            next = q.headReadyAt();
    if (next == ~Cycle{0})
        return next;
    return next <= now ? now + 1 : next;
}

void
Interconnect::save(snap::SnapWriter &out) const
{
    gcl_sim_check(idle(), "icnt", 0,
                  "checkpoint with flits in flight (", reqQueued(),
                  " requests, ", respQueued(), " responses)");
    out.u32(reqRrSm_);
    out.u32(respRrPart_);
}

void
Interconnect::load(snap::SnapReader &in)
{
    reqRrSm_ = in.u32();
    respRrPart_ = in.u32();
}

} // namespace gcl::sim
