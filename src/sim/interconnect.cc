#include "interconnect.hh"

#include <algorithm>

#include "guard/sim_error.hh"
#include "util/logging.hh"

namespace gcl::sim
{

Interconnect::Interconnect(const GpuConfig &config, MemPools &pools)
    : config_(config), pools_(pools),
      injectQ_(config.numSms),
      toPart_(config.numPartitions),
      respQ_(config.numPartitions),
      toSm_(config.numSms),
      smNextAt_(config.numSms, kNone),
      partNextAt_(config.numPartitions, kNone),
      partOpen_(config.numPartitions, 0),
      smUsed_(config.numSms, 0)
{
    // Pre-size the delay rings to their credit-limited worst case so they
    // never regrow mid-run.
    for (auto &q : toPart_)
        q.reserve(config.partQueueDepth);
    for (auto &q : toSm_)
        q.reserve(config.numPartitions * config.icntRespQueueDepth +
                  config.icntLatency);
}

void
Interconnect::inject(ReqHandle req, Cycle now, trace::TraceSink *sink)
{
    MemRequest &r = pools_.reqs.get(req);
    gcl_sim_check(canInject(r.smId), "icnt", now,
                  "inject into a full queue");
    r.tInjected = now;
    GCL_TRACE(sink, trace::EventKind::ReqInject, now, r.id,
              r.lineAddr, tracePc(r),
              static_cast<int16_t>(r.smId), traceFlags(r));
    injectQ_[static_cast<size_t>(r.smId)].push_back(req);
    ++injectCount_;
}

ReqHandle
Interconnect::popRequest(int part, Cycle now)
{
    gcl_sim_check(hasRequest(part, now), "icnt", now,
                  "popRequest with none ready");
    const auto p = static_cast<size_t>(part);
    --toPartCount_;
    DelayQueue<ReqHandle> &q = toPart_[p];
    const ReqHandle req = q.pop();
    partNextAt_[p] = q.empty() ? kNone : q.headReadyAt();
    return req;
}

bool
Interconnect::canRespond(int part) const
{
    return respQ_[static_cast<size_t>(part)].size() <
           config_.icntRespQueueDepth;
}

void
Interconnect::respond(ReqHandle req, Cycle now, trace::TraceSink *sink)
{
    MemRequest &r = pools_.reqs.get(req);
    gcl_sim_check(canRespond(r.partition), "icnt", now,
                  "respond into a full queue");
    r.tRespDepart = now;
    GCL_TRACE(sink, trace::EventKind::ReqRespDepart, now, r.id,
              r.lineAddr, tracePc(r),
              static_cast<int16_t>(r.partition), traceFlags(r));
    respQ_[static_cast<size_t>(r.partition)].push_back(req);
    ++respQCount_;
}

ReqHandle
Interconnect::popResponse(int sm, Cycle now)
{
    gcl_sim_check(hasResponse(sm, now), "icnt", now,
                  "popResponse with none ready");
    const auto s = static_cast<size_t>(sm);
    --toSmCount_;
    DelayQueue<ReqHandle> &q = toSm_[s];
    const ReqHandle req = q.pop();
    smNextAt_[s] = q.empty() ? kNone : q.headReadyAt();
    return req;
}

void
Interconnect::requestArbitration(Cycle now)
{
    // Request side: every partition accepts at most one flit, every SM
    // transmits at most one flit, round-robin over SMs for fairness.
    // The round-robin pointers advance whether or not the loops run: an
    // idle cycle must leave arbitration state exactly as if the loop had
    // executed and matched nothing.
    const unsigned num_sms = config_.numSms;

    if (injectCount_ != 0) {
        // Finite partition input buffers: a partition without a credit
        // takes nothing, and the flit stays in the SM's injection queue,
        // which eventually surfaces at the L1 as a reservation fail by
        // interconnection (Section VI). A partition's occupancy only
        // changes when it takes a flit, which also closes it, so marking
        // the credits once per cycle is exact.
        for (unsigned p = 0; p < config_.numPartitions; ++p)
            partOpen_[p] = toPart_[p].size() < config_.partQueueDepth;
        // Each SM is visited once, so it sends at most one flit.
        unsigned sm = reqRrSm_;
        for (unsigned i = 0; i < num_sms; ++i) {
            std::deque<ReqHandle> &q = injectQ_[sm];
            if (!q.empty()) {
                const auto part = static_cast<size_t>(
                    pools_.reqs.get(q.front()).partition);
                if (partOpen_[part]) {
                    partOpen_[part] = 0;
                    DelayQueue<ReqHandle> &dst = toPart_[part];
                    const Cycle ready = now + config_.icntLatency;
                    if (dst.empty())
                        partNextAt_[part] = ready;
                    dst.push(q.front(), ready);
                    q.pop_front();
                    --injectCount_;
                    ++toPartCount_;
                }
            }
            if (++sm == num_sms)
                sm = 0;
        }
    }
    if (++reqRrSm_ == num_sms)
        reqRrSm_ = 0;
}

void
Interconnect::responseArbitration(Cycle now)
{
    // Response side, symmetric, round-robin over partitions. Each
    // partition is visited once, so it sends at most one flit; an SM
    // takes at most one.
    const unsigned num_parts = config_.numPartitions;

    if (respQCount_ != 0) {
        std::fill(smUsed_.begin(), smUsed_.end(), 0);
        unsigned part = respRrPart_;
        for (unsigned i = 0; i < num_parts; ++i) {
            std::deque<ReqHandle> &q = respQ_[part];
            if (!q.empty()) {
                const auto sm =
                    static_cast<size_t>(pools_.reqs.get(q.front()).smId);
                if (!smUsed_[sm]) {
                    smUsed_[sm] = 1;
                    DelayQueue<ReqHandle> &dst = toSm_[sm];
                    const Cycle ready = now + config_.icntLatency;
                    if (dst.empty())
                        smNextAt_[sm] = ready;
                    dst.push(q.front(), ready);
                    q.pop_front();
                    --respQCount_;
                    ++toSmCount_;
                }
            }
            if (++part == num_parts)
                part = 0;
        }
    }
    if (++respRrPart_ == num_parts)
        respRrPart_ = 0;
}

void
Interconnect::cycle(Cycle now)
{
    requestArbitration(now);
    responseArbitration(now);
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

} // namespace gcl::sim
