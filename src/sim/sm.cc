#include "sm.hh"

#include <algorithm>
#include <bit>

#include "coalescer.hh"
#include "guard/sim_error.hh"
#include "snap/io.hh"
#include "util/logging.hh"

namespace gcl::sim
{

using ptx::Instruction;
using ptx::MemSpace;
using ptx::Opcode;

Sm::Sm(int id, const GpuConfig &config, GlobalMemory &gmem, SimStats &stats,
       MemPools &pools)
    : id_(id), config_(config), simStats_(stats),
      stats_(stats.newShard()), pools_(pools),
      executor_(gmem, config.warpSize),
      l1_("l1s" + std::to_string(id), config.l1, pools)
{
}

void
Sm::startLaunch(const LaunchContext &launch)
{
    gcl_sim_check(residentCtas_ == 0 && !busy(),
                  "sm" + std::to_string(id_), 0,
                  "startLaunch on a busy SM");
    launch_ = &launch;
    kernelId_ = simStats_.kernelId(launch.kernel->name());
    warpsPerCta_ = launch.warpsPerCta(config_.warpSize);

    const unsigned max_warps = config_.maxThreadsPerSm / config_.warpSize;
    const unsigned by_warps = max_warps / warpsPerCta_;
    maxResidentCtas_ = std::min(
        config_.ctasPerSm(static_cast<unsigned>(launch.cta.count()),
                          launch.kernel->sharedMemBytes()),
        std::max(1u, by_warps));

    ctas_.clear();
    ctas_.resize(maxResidentCtas_);
    warps_.clear();
    warps_.resize(static_cast<size_t>(maxResidentCtas_) * warpsPerCta_);
    warpAge_.assign(warps_.size(), 0);
    rrNext_.assign(config_.numSchedulers, 0);
    lastIssued_ = -1;
    const size_t per_scheduler =
        (warps_.size() + config_.numSchedulers - 1) / config_.numSchedulers;
    readyWords_ = static_cast<unsigned>((per_scheduler + 63) / 64);
    readyMask_.assign(
        static_cast<size_t>(config_.numSchedulers) * readyWords_ *
            kIssueClasses,
        0);
    readyClass_.assign(warps_.size(), kNotReady);
    spStageFreeAt_ = 0;
    sfuStageFreeAt_ = 0;
}

bool
Sm::canTakeCta() const
{
    return launch_ && residentCtas_ < maxResidentCtas_;
}

void
Sm::launchCta(uint32_t linear_id, uint32_t cx, uint32_t cy, uint32_t cz)
{
    gcl_sim_check(canTakeCta(), "sm" + std::to_string(id_), 0,
                  "launchCta without capacity");

    int slot = -1;
    for (size_t c = 0; c < ctas_.size(); ++c) {
        if (!ctas_[c].active) {
            slot = static_cast<int>(c);
            break;
        }
    }
    gcl_sim_check(slot >= 0, "sm" + std::to_string(id_), 0,
                  "no free CTA slot");
    issueDirty_ = true;
    GCL_DEBUG("sm", "sm", id_, ": cta ", linear_id, " -> slot ", slot);

    CtaContext &cta = ctas_[static_cast<size_t>(slot)];
    cta.active = true;
    cta.ctaX = cx;
    cta.ctaY = cy;
    cta.ctaZ = cz;
    cta.linearId = linear_id;
    cta.numWarps = warpsPerCta_;
    cta.warpsDone = 0;
    cta.warpsAtBarrier = 0;
    if (launch_->kernel->sharedMemBytes() > 0)
        cta.shared =
            std::make_unique<SharedMemory>(launch_->kernel->sharedMemBytes());
    else
        cta.shared.reset();

    const auto cta_threads = static_cast<uint32_t>(launch_->cta.count());
    for (unsigned w = 0; w < warpsPerCta_; ++w) {
        WarpContext &warp =
            warps_[static_cast<size_t>(slot) * warpsPerCta_ + w];
        warp.active = true;
        warp.ctaSlot = slot;
        warp.warpInCta = w;
        warp.threadBase = w * config_.warpSize;
        warp.atBarrier = false;
        warp.inflightOps = 0;
        warp.initRegs(launch_->kernel->numRegs(), config_.warpSize);
        // Producer tracking backs the crit data-hazard attribution; the
        // issue path never touches it when the profiler is off.
        if (crit)
            warp.sbProducer.assign(launch_->kernel->numRegs(), 0);

        LaneMask mask = 0;
        for (unsigned lane = 0; lane < config_.warpSize; ++lane)
            if (warp.threadBase + lane < cta_threads)
                mask |= LaneMask{1} << lane;
        warp.stack.reset(mask, launch_->kernel->size());

        warpAge_[static_cast<size_t>(slot) * warpsPerCta_ + w] =
            ageCounter_++;
        refreshReady(slot * static_cast<int>(warpsPerCta_) +
                     static_cast<int>(w));
    }
    ++residentCtas_;
}

unsigned
Sm::activeWarps() const
{
    unsigned n = 0;
    for (const auto &warp : warps_)
        if (warp.active)
            ++n;
    return n;
}

bool
Sm::busy() const
{
    return residentCtas_ > 0 || !ldstQ_.empty() || !pendingOps_.empty() ||
           !hitReturnQ_.empty() || !wbHeap_.empty();
}

// ---------------------------------------------------------------------
// Issue stage
// ---------------------------------------------------------------------

bool
Sm::warpReady(const WarpContext &warp, Cycle now) const
{
    return warpEligible(warp) &&
           unitFree(launch_->issueClass[warp.stack.pc()], now);
}

bool
Sm::warpEligible(const WarpContext &warp) const
{
    if (!warp.active || warp.atBarrier || warp.stack.done())
        return false;

    // Every scoreboard bit is paired with an inflight op, so a warp with
    // none in flight has a clean scoreboard and nothing to drain.
    if (warp.inflightOps == 0)
        return true;

    // Exit retires the warp slot; it must drain in-flight writebacks first.
    const size_t pc = warp.stack.pc();
    if (launch_->issueClass[pc] == LaunchContext::IssueExit)
        return false;

    // Scoreboard: no RAW or WAW on pending registers. AND the precomputed
    // per-pc dependence mask (sources, guard predicate, destination) word
    // by word.
    const uint64_t *mask = &launch_->sbMask[pc * launch_->sbWords];
    for (unsigned w = 0; w < launch_->sbWords; ++w)
        if (warp.scoreboard[w] & mask[w])
            return false;
    return true;
}

bool
Sm::unitFree(uint8_t cls, Cycle now) const
{
    switch (cls) {
      case LaunchContext::IssueBarrier:
      case LaunchContext::IssueExit:
        return true;
      case LaunchContext::IssueMemory:
        return ldstQ_.size() < config_.ldstQueueDepth;
      case LaunchContext::IssueSfu:
        return now >= sfuStageFreeAt_;
      default:
        return now >= spStageFreeAt_;
    }
}

void
Sm::refreshReady(int slot)
{
    // Eligibility reads only the warp's own state (active, barrier,
    // stack, scoreboard, inflight count), which changes only at CTA
    // launch, at the warp's own issue (exit included), at its writebacks
    // and at a barrier release — the call sites of this function.
    const unsigned nsched = config_.numSchedulers;
    const unsigned idx = static_cast<unsigned>(slot) / nsched;
    uint64_t *word =
        &readyMask_[(static_cast<size_t>(slot) % nsched * readyWords_ +
                     idx / 64) *
                    kIssueClasses];
    const uint64_t bit = uint64_t{1} << (idx % 64);
    uint8_t &filed = readyClass_[static_cast<size_t>(slot)];
    if (filed != kNotReady)
        word[filed] &= ~bit;
    const WarpContext &warp = warps_[static_cast<size_t>(slot)];
    filed = warpEligible(warp) ? launch_->issueClass[warp.stack.pc()]
                               : kNotReady;
    if (filed != kNotReady)
        word[filed] |= bit;
}

int
Sm::pickWarp(unsigned scheduler, Cycle now)
{
#if GCL_POOL_CHECKED
    // Checked builds re-derive every pick with the reference scan: a
    // ready bit that missed a refresh event shows up here as a different
    // slot or LRR pointer, at the cycle it first matters.
    unsigned ref_next = rrNext_[scheduler];
    const int ref = pickByScan(scheduler, now, ref_next);
    const int slot = pickReady(scheduler, now);
    if (slot != ref || rrNext_[scheduler] != ref_next)
        gcl_sim_error(SimError::Kind::Invariant, "sm" + std::to_string(id_),
                      now, "ready-mask pick on scheduler ", scheduler,
                      " chose slot ", slot, " (lrr next ", rrNext_[scheduler],
                      "), the reference scan chose ", ref, " (lrr next ",
                      ref_next, ")");
    return slot;
#else
    return pickReady(scheduler, now);
#endif
}

int
Sm::pickReady(unsigned scheduler, Cycle now)
{
    if (readyWords_ == 0)
        return -1;
    // Unit availability is read per call, not per cycle: an earlier
    // scheduler's issue this cycle can fill the LD/ST queue or occupy
    // the SP/SFU stage. Barrier and exit need no unit.
    auto open = [&](LaunchContext::IssueClass cls) {
        return unitFree(cls, now) ? ~uint64_t{0} : uint64_t{0};
    };
    const uint64_t memory = open(LaunchContext::IssueMemory);
    const uint64_t sfu = open(LaunchContext::IssueSfu);
    const uint64_t sp = open(LaunchContext::IssueSp);
    const uint64_t *masks =
        &readyMask_[static_cast<size_t>(scheduler) * readyWords_ *
                    kIssueClasses];
    // Ready warps among this scheduler's slots 64w .. 64w + 63.
    auto ready = [&](unsigned w) {
        const uint64_t *word = masks + static_cast<size_t>(w) * kIssueClasses;
        return word[LaunchContext::IssueBarrier] |
               word[LaunchContext::IssueExit] |
               (word[LaunchContext::IssueMemory] & memory) |
               (word[LaunchContext::IssueSfu] & sfu) |
               (word[LaunchContext::IssueSp] & sp);
    };
    const unsigned nsched = config_.numSchedulers;

    if (config_.warpSched == WarpSchedPolicy::GreedyThenOldest) {
        if (lastIssued_ >= 0 &&
            static_cast<unsigned>(lastIssued_) % nsched == scheduler) {
            const unsigned idx = static_cast<unsigned>(lastIssued_) / nsched;
            if ((ready(idx / 64) >> (idx % 64)) & 1)
                return lastIssued_;
        }
        int best = -1;
        uint64_t best_age = ~uint64_t{0};
        for (unsigned w = 0; w < readyWords_; ++w) {
            for (uint64_t bits = ready(w); bits != 0; bits &= bits - 1) {
                const unsigned s = scheduler +
                    (w * 64 + static_cast<unsigned>(std::countr_zero(bits))) *
                        nsched;
                if (warpAge_[s] < best_age) {
                    best_age = warpAge_[s];
                    best = static_cast<int>(s);
                }
            }
        }
        return best;
    }

    // Loose round-robin: the first ready bit at or after the pointer,
    // wrapping. The start word comes round again last for its bits below
    // the pointer; those at or after it were already found clear.
    unsigned &next = rrNext_[scheduler];
    const unsigned first = next / 64;
    const uint64_t start = ready(first);
    uint64_t bits = start & (~uint64_t{0} << (next % 64));
    unsigned w = first;
    for (unsigned step = 1; bits == 0; ++step) {
        if (step > readyWords_)
            return -1;
        w = (first + step) % readyWords_;
        bits = step == readyWords_ ? start : ready(w);
    }
    const unsigned idx = w * 64 + static_cast<unsigned>(std::countr_zero(bits));
    const unsigned count = static_cast<unsigned>(
        (warps_.size() - scheduler + nsched - 1) / nsched);
    next = (idx + 1) % count;
    return static_cast<int>(scheduler + idx * nsched);
}

int
Sm::pickByScan(unsigned scheduler, Cycle now, unsigned &rr_next) const
{
    const unsigned nsched = config_.numSchedulers;
    const unsigned total = static_cast<unsigned>(warps_.size());
    // Slots handled by this scheduler: scheduler, scheduler+nsched, ...
    const unsigned count = total > scheduler
        ? (total - scheduler + nsched - 1) / nsched
        : 0;
    if (count == 0)
        return -1;

    if (config_.warpSched == WarpSchedPolicy::GreedyThenOldest) {
        if (lastIssued_ >= 0 &&
            static_cast<unsigned>(lastIssued_) % nsched == scheduler &&
            warpReady(warps_[static_cast<size_t>(lastIssued_)], now))
            return lastIssued_;
        int best = -1;
        uint64_t best_age = ~uint64_t{0};
        for (unsigned s = scheduler; s < total; s += nsched) {
            if (warpReady(warps_[s], now) && warpAge_[s] < best_age) {
                best_age = warpAge_[s];
                best = static_cast<int>(s);
            }
        }
        return best;
    }

    // Loose round-robin.
    for (unsigned i = 0; i < count; ++i) {
        const unsigned idx = (rr_next + i) % count;
        const unsigned s = scheduler + idx * nsched;
        if (warpReady(warps_[s], now)) {
            rr_next = (idx + 1) % count;
            return static_cast<int>(s);
        }
    }
    return -1;
}

void
Sm::releaseBarrier(CtaContext &cta, int cta_slot)
{
    for (unsigned w = 0; w < warpsPerCta_; ++w) {
        const int slot =
            cta_slot * static_cast<int>(warpsPerCta_) + static_cast<int>(w);
        WarpContext &other = warps_[static_cast<size_t>(slot)];
        if (other.active) {
            other.atBarrier = false;
            refreshReady(slot);
        }
    }
    cta.warpsAtBarrier = 0;
    issueDirty_ = true;
}

void
Sm::warpExited(int slot)
{
    WarpContext &warp = warps_[static_cast<size_t>(slot)];
    warp.active = false;
    CtaContext &cta = ctas_[static_cast<size_t>(warp.ctaSlot)];
    ++cta.warpsDone;

    if (cta.warpsDone == cta.numWarps) {
        cta.active = false;
        cta.shared.reset();
        gcl_sim_check(residentCtas_ > 0, "sm" + std::to_string(id_), 0,
                      "CTA bookkeeping underflow");
        --residentCtas_;
        return;
    }

    // The exit may have been the last warp a barrier was waiting for.
    if (cta.warpsAtBarrier > 0 &&
        cta.warpsAtBarrier == cta.numWarps - cta.warpsDone)
        releaseBarrier(cta, warp.ctaSlot);
}

void
Sm::issueWarp(int slot, Cycle now)
{
    WarpContext &warp = warps_[static_cast<size_t>(slot)];
    CtaContext &cta = ctas_[static_cast<size_t>(warp.ctaSlot)];
    const size_t pc = warp.stack.pc();
    const Instruction &inst = launch_->kernel->inst(pc);
    const LaneMask active = warp.stack.activeMask();

    const StepInfo info = executor_.step(*launch_, cta, warp, pc, active);

    ++stats_.hot.warpInsts;
    stats_.hot.threadInsts += static_cast<uint64_t>(std::popcount(active));
    lastIssued_ = slot;
    warpAge_[static_cast<size_t>(slot)] = ageCounter_++;

    switch (info.kind) {
      case StepInfo::Kind::Alu:
      case StepInfo::Kind::Nop:
        // Timing comes from the machine description's opcode-class table,
        // resolved to per-pc values at launch (LaunchContext::opLatency).
        spStageFreeAt_ = now + launch_->opInitiation[pc];
        if (inst.writesDst()) {
            warp.setScoreboard(inst.dst);
            if (crit)
                warp.sbProducer[inst.dst] = static_cast<uint32_t>(pc);
            ++warp.inflightOps;
            scheduleWriteback(now + launch_->opLatency[pc], slot,
                              inst.dst);
        }
        warp.stack.advance();
        break;

      case StepInfo::Kind::Sfu:
        sfuStageFreeAt_ = now + launch_->opInitiation[pc];
        if (inst.writesDst()) {
            warp.setScoreboard(inst.dst);
            if (crit)
                warp.sbProducer[inst.dst] = static_cast<uint32_t>(pc);
            ++warp.inflightOps;
            scheduleWriteback(now + launch_->opLatency[pc], slot,
                              inst.dst);
        }
        warp.stack.advance();
        break;

      case StepInfo::Kind::Branch:
        spStageFreeAt_ = now + 1;
        warp.stack.branch(info.takenMask, info.targetPc,
                          launch_->cfg->reconvergencePc(pc));
        if (warp.stack.done())
            warpExited(slot);
        break;

      case StepInfo::Kind::Barrier:
        warp.stack.advance();
        warp.atBarrier = true;
        ++cta.warpsAtBarrier;
        if (cta.warpsAtBarrier == cta.numWarps - cta.warpsDone)
            releaseBarrier(cta, warp.ctaSlot);
        break;

      case StepInfo::Kind::Exit:
        warp.stack.exitLanes(active);
        if (warp.stack.done())
            warpExited(slot);
        break;

      case StepInfo::Kind::Memory:
        startMemOp(slot, pc, inst, info, now);
        warp.stack.advance();
        break;
    }
    // Whatever the instruction did to this warp — new pc, scoreboard
    // bits, a barrier wait, an exit — its ready bit follows.
    refreshReady(slot);
}

void
Sm::issueCycle(Cycle now)
{
    if (crit) {
        // Attribution path: every slot of every cycle must be issued or
        // charged, including cycles the short-circuit below skips. The
        // simulation stays bit-identical because pickWarp mutates
        // scheduler state only when it returns a warp, and it is invoked
        // exactly when the baseline would invoke it (scan == issueDirty_;
        // a skipped scan is by construction one that would find nothing).
        ++crit->cycles;
        const bool scan = issueDirty_;
        bool issued = false;
        for (unsigned sched = 0; sched < config_.numSchedulers; ++sched) {
            const int slot = scan ? pickWarp(sched, now) : -1;
            if (slot >= 0) {
                issueWarp(slot, now);
                issued = true;
                ++crit->issued;
            } else {
                critCharge(sched, now);
            }
        }
        if (scan)
            issueDirty_ = issued;
        return;
    }

    // Event-driven short-circuit: when the last scan found nothing
    // issuable and no state that could wake a warp has changed since
    // (writeback, barrier release, LD/ST drain, CTA arrival, or another
    // issue), the scan would find nothing again.
    if (!issueDirty_)
        return;
    bool issued = false;
    for (unsigned sched = 0; sched < config_.numSchedulers; ++sched) {
        const int slot = pickWarp(sched, now);
        if (slot >= 0) {
            issueWarp(slot, now);
            issued = true;
        }
    }
    issueDirty_ = issued;
}

void
Sm::critCharge(unsigned scheduler, Cycle now, uint64_t count)
{
    using crit::StallReason;
    const unsigned nsched = config_.numSchedulers;
    const unsigned total = static_cast<unsigned>(warps_.size());

    // The blocking warp: the oldest active warp this scheduler owns (the
    // one it is most overdue to issue). DESIGN.md "Stall taxonomy" spells
    // out the attribution rules below.
    int blocking = -1;
    uint64_t best_age = ~uint64_t{0};
    for (unsigned s = scheduler; s < total; s += nsched) {
        if (warps_[s].active && warpAge_[s] < best_age) {
            best_age = warpAge_[s];
            blocking = static_cast<int>(s);
        }
    }
    if (blocking < 0) {
        // Nothing live on this scheduler: either the SM still has CTAs
        // (their warps all sit on other schedulers or already retired)
        // or it is fully drained.
        crit->charge(residentCtas_ > 0 ? StallReason::IbufferEmpty
                                       : StallReason::IdleNoCta,
                     count);
        return;
    }

    const WarpContext &warp = warps_[static_cast<size_t>(blocking)];
    if (warpReady(warp, now)) {
        // Ready but skipped: only reachable on short-circuited cycles,
        // where a warp waiting on a pure time edge (a busy SP/SFU stage)
        // ripens with no wake event. The model defers it to the next
        // wake, so the lost slots are structural.
        crit->charge(StallReason::Pipeline, count);
        return;
    }
    if (warp.atBarrier) {
        crit->charge(StallReason::Barrier, count);
        return;
    }

    const size_t pc = warp.stack.pc();
    const uint8_t cls = launch_->issueClass[pc];

    // Scoreboard hazard — including Exit draining its in-flight
    // writebacks: charge the producer of the first blocking register.
    if (warp.inflightOps > 0) {
        const bool exit_drain = cls == LaunchContext::IssueExit;
        const uint64_t *mask =
            exit_drain ? nullptr : &launch_->sbMask[pc * launch_->sbWords];
        const unsigned words = exit_drain
            ? static_cast<unsigned>(warp.scoreboard.size())
            : launch_->sbWords;
        for (unsigned w = 0; w < words; ++w) {
            const uint64_t conflict =
                warp.scoreboard[w] & (exit_drain ? ~uint64_t{0} : mask[w]);
            if (!conflict)
                continue;
            const uint32_t reg = w * 64 +
                static_cast<uint32_t>(std::countr_zero(conflict));
            const uint32_t producer = warp.sbProducer[reg];
            crit->chargePc(StallReason::DataHazard,
                           crit::pcKey(kernelId_, producer),
                           launch_->pcLoadClass[producer], count);
            return;
        }
    }

    // No hazard, not at a barrier, not ready: a function unit refused.
    if (cls == LaunchContext::IssueMemory && !ldstQ_.empty()) {
        // LD/ST queue full. Blame the resource the head request last
        // failed on (issue runs before LD/ST, so this is the previous
        // cycle's outcome — the fail that kept the queue full into this
        // one) and attribute the slot to the op occupying the stage.
        StallReason reason = StallReason::Pipeline;
        if (critLastL1Outcome_ ==
            static_cast<uint8_t>(AccessOutcome::FailMshr))
            reason = StallReason::MshrFull;
        else if (critLastL1Outcome_ ==
                 static_cast<uint8_t>(AccessOutcome::FailIcnt))
            reason = StallReason::IcntBackpressure;
        const WarpMemOp &head = pools_.ops.get(ldstQ_.front());
        const auto head_pc = static_cast<uint32_t>(head.pc);
        crit->chargePc(reason, crit::pcKey(kernelId_, head_pc),
                       launch_->pcLoadClass[head_pc], count);
        return;
    }
    crit->charge(StallReason::Pipeline, count);
}

// ---------------------------------------------------------------------
// LD/ST unit
// ---------------------------------------------------------------------

void
Sm::startMemOp(int slot, size_t pc, const Instruction &inst,
               const StepInfo &info, Cycle now)
{
    WarpContext &warp = warps_[static_cast<size_t>(slot)];

    const OpHandle op_handle = pools_.ops.alloc();
    WarpMemOp &op = pools_.ops.get(op_handle);
    op.smId = id_;
    op.warpSlot = slot;
    op.pc = pc;
    op.isLoad = info.isLoad;
    op.isStore = info.isStore;
    op.isAtomic = info.isAtomic;
    op.activeThreads = static_cast<unsigned>(info.addrs.size());
    op.tIssue = now;

    const bool writes_reg = inst.writesDst() && (info.isLoad || info.isAtomic);

    if (info.space == MemSpace::Shared || info.space == MemSpace::Param) {
        // Shared memory and the constant/param bank: fixed-latency on-chip
        // access, no cache traffic. Bank conflicts are not modeled.
        op.isShared = true;
        op.dst = writes_reg ? inst.dst : ptx::kNoReg;
        if (info.space == MemSpace::Shared && info.isLoad)
            ++stats_.hot.sloadWarps;
        else if (info.space == MemSpace::Shared)
            ++stats_.hot.sstoreWarps;
    } else {
        // Global-like spaces flow through coalescer + L1 + interconnect.
        op.isGlobalLoad = info.isLoad && info.space == MemSpace::Global;
        op.nonDet = op.isGlobalLoad && launch_->nonDetPc[pc];
        op.dst = writes_reg ? inst.dst : ptx::kNoReg;

        const auto lines =
            coalesce(info.addrs, info.accessSize, config_.l1.lineBytes,
                     traceSink, now, static_cast<uint32_t>(pc), id_,
                     op.nonDet);
        gcl_sim_check(lines.size() <= WarpMemOp::kMaxRequests,
                      "sm" + std::to_string(id_), now,
                      "coalescer produced ", lines.size(),
                      " lines for one warp op");
        const bool expects_data = info.isLoad || info.isAtomic;
        for (uint64_t line : lines) {
            const ReqHandle req_handle = pools_.reqs.alloc();
            MemRequest &req = pools_.reqs.get(req_handle);
            req.lineAddr = line;
            req.isWrite = info.isStore;
            req.isAtomic = info.isAtomic;
            req.smId = id_;
            req.isGlobalLoad = op.isGlobalLoad;
            req.nonDet = op.nonDet;
            req.opHandle = expects_data ? op_handle : kNullHandle;
            req.pc = expects_data ? static_cast<uint32_t>(pc) : 0;
            req.partition = partitionMap(line, id_, config_);
            op.requests[op.numRequests++] = req_handle;
        }
        op.outstanding = expects_data ? op.numRequests : 0;

        if (GCL_TRACE_ACTIVE(traceSink) && op.numRequests != 0) {
            for (uint32_t i = 0; i < op.numRequests; ++i)
                pools_.reqs.get(op.requests[i]).id = traceSink->newId(
                    op.requests[i], trace::StageSink::kIdReq);
            if (op.isGlobalLoad) {
                op.id =
                    traceSink->newId(op_handle, trace::StageSink::kIdOp);
                traceSink->emit(trace::EventKind::OpIssue, now, op.id,
                                static_cast<uint64_t>(slot),
                                static_cast<uint32_t>(pc),
                                static_cast<int16_t>(id_),
                                op.nonDet ? trace::kFlagNonDet
                                          : uint8_t{0});
            }
        }

        if (info.isStore)
            ++stats_.hot.gstoreWarps;
        if (info.isAtomic)
            ++stats_.hot.atomWarps;
    }

    if (writes_reg) {
        warp.setScoreboard(inst.dst);
        if (crit)
            warp.sbProducer[inst.dst] = static_cast<uint32_t>(pc);
        ++warp.inflightOps;
    }

    // A fully predicated-off access produces no work at all.
    if (!op.isShared && op.numRequests == 0) {
        if (writes_reg)
            scheduleWriteback(now + 1, slot, inst.dst);
        pools_.ops.free(op_handle);
        return;
    }

    ldstQ_.push_back(op_handle);
}

void
Sm::completeRequest(ReqHandle req_handle, Cycle now)
{
    MemRequest &req = pools_.reqs.get(req_handle);
    req.tComplete = now;
    GCL_TRACE(traceSink, trace::EventKind::ReqComplete, now, req.id,
              req.lineAddr, tracePc(req), static_cast<int16_t>(id_),
              traceFlags(req));
    const OpHandle op_handle = req.opHandle;
    if (op_handle == kNullHandle) {
        // Store: nothing waits for it.
        pools_.reqs.free(req_handle);
        return;
    }
    ++stats_.hot.reqsCompleted;

    WarpMemOp &op = pools_.ops.get(op_handle);
    gcl_sim_check(op.outstanding > 0, "sm" + std::to_string(id_), now,
                  "request completion underflow");
    --op.outstanding;
    if (op.tFirstData == 0)
        op.tFirstData = now;
    if (static_cast<int>(req.level) > static_cast<int>(op.deepest))
        op.deepest = req.level;

    // Fig 7 "gap at icnt-L2" contribution, accumulated now so the request
    // can be freed before the op retires (matches the retired-op sum
    // exactly: integer-valued doubles add without rounding).
    if (req.level != ServiceLevel::L1) {
        const double nominal = config_.icntLatency + config_.ropLatency;
        const double actual = static_cast<double>(req.tArriveL2) -
                              static_cast<double>(req.tAccepted);
        op.gapIcntL2Sum += std::max(0.0, actual - nominal);
        ++op.missedReqs;
    }

    // Per-stage latency decomposition (gcl::crit), folded before the free
    // while the stamps are live. An L1-MSHR-merged secondary never left
    // the SM (tInjected == 0): its whole trip is the primary's, recorded
    // as one Merge delta. An L2-MSHR merge has no DRAM enqueue stamp, so
    // its DRAM wait stays inside the L2 stage (see crit::Stage).
    if (crit && req.isGlobalLoad) {
        using crit::Stage;
        const uint64_t key = crit::pcKey(kernelId_, req.pc);
        crit->stage(key, Stage::Accept, req.tAccepted - op.tIssue);
        if (req.level == ServiceLevel::L1) {
            crit->stage(key, Stage::L1, req.tComplete - req.tAccepted);
        } else if (req.tInjected == 0) {
            crit->stage(key, Stage::Merge, req.tComplete - req.tAccepted);
        } else {
            crit->stage(key, Stage::IcntToL2,
                        req.tArriveL2 - req.tInjected);
            const Cycle l2_end = req.tDramEnq ? req.tDramEnq : req.tL2Done;
            crit->stage(key, Stage::L2, l2_end - req.tArriveL2);
            if (req.tDramEnq)
                crit->stage(key, Stage::Dram, req.tL2Done - req.tDramEnq);
            crit->stage(key, Stage::Resp, req.tComplete - req.tL2Done);
        }
    }
    pools_.reqs.free(req_handle);

    if (op.complete()) {
        for (size_t i = 0; i < pendingOps_.size(); ++i) {
            if (pendingOps_[i] == op_handle) {
                pendingOps_[i] = pendingOps_.back();
                pendingOps_.pop_back();
                finishMemOp(op_handle, now);
                return;
            }
        }
        gcl_sim_error(SimError::Kind::Invariant,
                      "sm" + std::to_string(id_), now,
                      "completed op not found in pendingOps");
    }
}

void
Sm::finishMemOp(OpHandle op_handle, Cycle now)
{
    WarpMemOp &op = pools_.ops.get(op_handle);
    op.tDone = now;
    if (op.isGlobalLoad) {
        stats_.gloadDone(op, kernelId_);
        if (crit)
            crit->opDone(crit::pcKey(kernelId_,
                                     static_cast<uint32_t>(op.pc)),
                         op.tDone - op.tIssue, op.nonDet ? 2 : 1);
        GCL_TRACE(traceSink, trace::EventKind::OpDone, now, op.id,
                  static_cast<uint64_t>(op.warpSlot),
                  static_cast<uint32_t>(op.pc), static_cast<int16_t>(id_),
                  op.nonDet ? trace::kFlagNonDet : uint8_t{0});
    }
    if (op.dst != ptx::kNoReg)
        scheduleWriteback(now, op.warpSlot, op.dst);
    pools_.ops.free(op_handle);
}

void
Sm::ldstCycle(Cycle now, Interconnect &icnt)
{
    // Recomputed below on the deterministic-fail path; anything else the
    // stage does this cycle is progress, which un-stalls the head.
    ldstHeadStall_ = kNoStall;

    // L1 hits coming back after the hit latency.
    while (hitReturnQ_.headReady(now))
        completeRequest(hitReturnQ_.pop(), now);

    if (ldstQ_.empty())
        return;
    ++stats_.hot.busyLdst;

    const OpHandle op_handle = ldstQ_.front();
    WarpMemOp &op = pools_.ops.get(op_handle);

    if (op.isShared) {
        // On-chip scratchpad: one stage cycle, fixed latency.
        op.tFirstAccept = op.tLastAccept = now;
        ldstQ_.pop_front();
        issueDirty_ = true;
        if (op.dst != ptx::kNoReg)
            scheduleWriteback(now + config_.sharedMemLatency, op.warpSlot,
                              op.dst);
        pools_.ops.free(op_handle);
        return;
    }

    // Issue the next coalesced request.
    const ReqHandle req_handle = op.requests[op.nextToIssue];
    MemRequest &req = pools_.reqs.get(req_handle);
    bool accepted = false;

    // Lifecycle emit, deduped: a stalled op retries the same request every
    // cycle, so repeated identical fails would dominate the trace.
    auto trace_l1 = [&](AccessOutcome outcome) {
        if (GCL_TRACE_ACTIVE(traceSink) &&
            req.traceLastFail != static_cast<uint8_t>(outcome)) {
            req.traceLastFail = static_cast<uint8_t>(outcome);
            traceSink->emit(trace::EventKind::ReqL1Access, now, req.id,
                            req.lineAddr, tracePc(req),
                            static_cast<int16_t>(id_),
                            traceFlags(req) |
                                trace::packOutcome(
                                    static_cast<unsigned>(outcome)));
        }
    };

    // Injected interconnect backpressure (gcl::guard): the port refuses
    // for the window, surfacing at the L1 as FailIcnt — the same edge a
    // real storm exercises.
    const bool icnt_ok =
        icnt.canInject(id_) && !(fault && fault->icntBlocked(now));

    if (req.isWrite || req.isAtomic) {
        // Write-through stores and atomics bypass the L1 tags; they only
        // need interconnect injection space.
        if (icnt_ok) {
            req.tAccepted = now;
            trace_l1(AccessOutcome::Miss);
            icnt.inject(req_handle, now, traceSink);
            stats_.l1AccessCycle(AccessOutcome::Miss);
            if (crit)
                critLastL1Outcome_ =
                    static_cast<uint8_t>(AccessOutcome::Miss);
            accepted = true;
        } else {
            trace_l1(AccessOutcome::FailIcnt);
            stats_.l1AccessCycle(AccessOutcome::FailIcnt);
            if (crit)
                critLastL1Outcome_ =
                    static_cast<uint8_t>(AccessOutcome::FailIcnt);
        }
    } else {
        // Injected MSHR exhaustion reports FailMshr without touching the
        // tag array, exactly like a real full-MSHR reservation fail.
        const AccessOutcome outcome =
            fault && fault->mshrExhausted(now)
                ? AccessOutcome::FailMshr
                : l1_.access(req_handle, icnt_ok);
        trace_l1(outcome);
        stats_.l1AccessCycle(outcome);
        if (crit)
            critLastL1Outcome_ = static_cast<uint8_t>(outcome);
        switch (outcome) {
          case AccessOutcome::Hit:
            req.tAccepted = now;
            req.level = ServiceLevel::L1;
            hitReturnQ_.push(req_handle, now + config_.l1HitLatency);
            accepted = true;
            break;
          case AccessOutcome::HitReserved:
            req.tAccepted = now;
            accepted = true;
            break;
          case AccessOutcome::Miss:
            req.tAccepted = now;
            icnt.inject(req_handle, now, traceSink);
            accepted = true;
            break;
          case AccessOutcome::FailTag:
          case AccessOutcome::FailMshr:
          case AccessOutcome::FailIcnt:
            // Frozen until an external event flips the probe: a fill (for
            // the tag/MSHR resources) or an injection-queue pop (for
            // FailIcnt — the queue sits at its cap, and only arbitration
            // drains it). Both are events the Gpu's wake scan watches.
            // With a fault oracle attached the outcome can flip mid-span
            // and its per-attempt queries count, so never freeze then.
            if (!fault)
                ldstHeadStall_ = static_cast<uint8_t>(outcome);
            break;
        }
        if (accepted && req.isGlobalLoad) {
            const WarpContext &warp =
                warps_[static_cast<size_t>(op.warpSlot)];
            const uint32_t cta =
                ctas_[static_cast<size_t>(warp.ctaSlot)].linearId;
            stats_.l1Access(req.nonDet, outcome != AccessOutcome::Hit,
                            req.lineAddr, cta);
        }
    }

    if (!accepted)
        return;  // retry next cycle; the stage stays occupied

    // Conservation (gcl::guard): an accepted data-expecting request must
    // eventually complete; the end-of-launch check balances this counter
    // against reqsCompleted.
    if (req.opHandle != kNullHandle)
        ++stats_.hot.reqsIssued;

    // Once accepted, the L1-side fail history is irrelevant — reset so the
    // L2-side dedupe (which reuses the field) starts fresh.
    if (GCL_TRACE_ACTIVE(traceSink))
        req.traceLastFail = 0xff;

    if (op.tFirstAccept == 0 && op.nextToIssue == 0)
        op.tFirstAccept = now;
    op.tLastAccept = now;
    ++op.nextToIssue;
    ++op.burstCount;

    if (op.allIssued()) {
        ldstQ_.pop_front();
        issueDirty_ = true;
        if (op.outstanding > 0)
            pendingOps_.push_back(op_handle);
        else
            finishMemOp(op_handle, now);
        return;
    }

    // Warp-splitting ablation (Section X.A): a non-deterministic load only
    // issues a bounded burst before yielding the stage to the next op.
    if (config_.nondetSplitRequests > 0 && op.nonDet &&
        op.burstCount >= config_.nondetSplitRequests && ldstQ_.size() > 1) {
        op.burstCount = 0;
        ldstQ_.pop_front();
        ldstQ_.push_back(op_handle);
    }
}

// ---------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------

void
Sm::scheduleWriteback(Cycle when, int slot, ptx::RegId reg)
{
    wbHeap_.push({when, slot, reg});
}

void
Sm::writebackCycle(Cycle now)
{
    while (!wbHeap_.empty() && wbHeap_.top().time <= now) {
        const Writeback wb = wbHeap_.top();
        wbHeap_.pop();
        issueDirty_ = true;
        WarpContext &warp = warps_[static_cast<size_t>(wb.slot)];
        gcl_sim_check(warp.active, "sm" + std::to_string(id_), now,
                      "writeback to a retired warp slot");
        warp.clearScoreboard(wb.reg);
        gcl_sim_check(warp.inflightOps > 0, "sm" + std::to_string(id_), now,
                      "scoreboard acquire/release imbalance (inflight op "
                      "underflow)");
        --warp.inflightOps;
        refreshReady(wb.slot);
    }
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

void
Sm::cycle(Cycle now, Interconnect &icnt)
{
    ++stats_.hot.smCycles;

    writebackCycle(now);
    issueCycle(now);
    ldstCycle(now, icnt);

    // First-pipeline-stage occupancy for Fig 4 (checked after issue so an
    // instruction issued this cycle marks its unit busy this cycle).
    if (now < spStageFreeAt_)
        ++stats_.hot.busySp;
    if (now < sfuStageFreeAt_)
        ++stats_.hot.busySfu;
}

void
Sm::skipCycles(Cycle first, uint64_t count)
{
    // Everything cycle() would have done over the dead span [first,
    // first + count), cycle by cycle: no writeback ripens, the issue scan
    // is short-circuited (issueDirty_ is false or skipping would not have
    // happened), no hit return is due, and the LD/ST queue is either
    // empty or its head is a deterministically stalled retry — so only
    // the per-cycle counters move.
    stats_.hot.smCycles += count;
    if (first < spStageFreeAt_)
        stats_.hot.busySp +=
            std::min<uint64_t>(count, spStageFreeAt_ - first);
    if (first < sfuStageFreeAt_)
        stats_.hot.busySfu +=
            std::min<uint64_t>(count, sfuStageFreeAt_ - first);
    if (!ldstQ_.empty()) {
        // Deterministically stalled head (nextEventCycle admitted the
        // span only because ldstHeadStall_ froze the retry outcome):
        // every cycle of the span burns the stage and counts one failed
        // attempt with the same outcome. The trace stays silent — the
        // per-request dedupe already recorded this fail — and
        // critLastL1Outcome_ already holds the outcome.
        gcl_sim_check(ldstHeadStall_ != kNoStall, "sm", first,
                      "SM ", id_, " credited a skipped span with a live "
                      "LD/ST head — nextEventCycle lied about the span "
                      "being dead");
        stats_.hot.busyLdst += count;
        stats_.l1AccessCycle(static_cast<AccessOutcome>(ldstHeadStall_),
                             count);
    }
    if (crit) {
        // The per-scheduler attribution is constant across the span (the
        // blocking warp, its scoreboard and the queues are all frozen;
        // an SP/SFU stage-free edge inside the span flips warpReady but
        // both sides charge Pipeline), so evaluating it once at the
        // span's first cycle and multiplying is exact.
        crit->cycles += count;
        for (unsigned sched = 0; sched < config_.numSchedulers; ++sched)
            critCharge(sched, first, count);
    }
}

void
Sm::receiveResponse(ReqHandle req_handle, Cycle now)
{
    // Response delivery runs after ldstCycle within a tick; the fill below
    // frees the very resource the head stalled on, so the frozen-outcome
    // claim no longer holds past this cycle.
    ldstHeadStall_ = kNoStall;
    // Injected dropped fill (gcl::guard): the response vanishes, leaking
    // the MSHR entry and every merged request — the livelock case the
    // forward-progress watchdog exists to catch. (The pooled request leaks
    // too; the pool dies with the Gpu.)
    if (fault && fault->dropFill(now))
        return;
    const MemRequest &req = pools_.reqs.get(req_handle);
    if (req.isAtomic) {
        completeRequest(req_handle, now);
        return;
    }
    // The head of the fill chain is this request itself; copy what the
    // merged requests inherit before completion frees it.
    const uint64_t line_addr = req.lineAddr;
    const ServiceLevel level = req.level;
    const Cycle t_l2_done = req.tL2Done;
    const Cycle t_arrive_l2 = req.tArriveL2;

    ReqHandle waiting = l1_.fill(line_addr);
    while (waiting != kNullHandle) {
        MemRequest &merged = pools_.reqs.get(waiting);
        const ReqHandle next = merged.nextWaiting;  // read before the free
        merged.level = level;
        merged.tL2Done = merged.tL2Done ? merged.tL2Done : t_l2_done;
        merged.tArriveL2 =
            merged.tArriveL2 ? merged.tArriveL2 : t_arrive_l2;
        completeRequest(waiting, now);
        waiting = next;
    }
}

void
Sm::drainResponses(Cycle now, Interconnect &icnt)
{
    while (icnt.hasResponse(id_, now))
        receiveResponse(icnt.popResponse(id_, now), now);
}

guard::SmHangInfo
Sm::hangInfo() const
{
    guard::SmHangInfo info;
    info.sm = id_;
    info.residentCtas = residentCtas_;
    info.activeWarps = activeWarps();
    for (const auto &cta : ctas_)
        if (cta.active)
            info.warpsAtBarrier += cta.warpsAtBarrier;
    for (const auto &warp : warps_)
        if (warp.active)
            info.inflightOps += warp.inflightOps;
    info.ldstQueued = ldstQ_.size();
    info.pendingOps = pendingOps_.size();
    info.mshrOccupancy = l1_.mshrOccupancy();
    info.reservedLines = l1_.reservedLines();

    unsigned listed = 0;
    for (size_t slot = 0; slot < warps_.size(); ++slot) {
        const WarpContext &warp = warps_[slot];
        if (!warp.active)
            continue;
        if (listed == 8) {
            info.stuckWarps += " ...";
            break;
        }
        if (!info.stuckWarps.empty())
            info.stuckWarps += ' ';
        info.stuckWarps += 'w' + std::to_string(slot);
        if (warp.atBarrier)
            info.stuckWarps += "@bar";
        else if (!warp.stack.done())
            info.stuckWarps += "@pc" + std::to_string(warp.stack.pc());
        ++listed;
    }
    if (crit)
        info.critSummary = crit->hangSummary();
    return info;
}

void
Sm::save(snap::SnapWriter &out) const
{
    gcl_sim_check(!busy(), "sm" + std::to_string(id_), 0,
                  "checkpoint with resident CTAs or in-flight work");
    out.u64(ageCounter_);
    out.u8(issueDirty_ ? 1 : 0);
    out.u8(critLastL1Outcome_);
    out.u64(spStageFreeAt_);
    out.u64(sfuStageFreeAt_);
    l1_.save(out);
}

void
Sm::load(snap::SnapReader &in)
{
    ageCounter_ = in.u64();
    issueDirty_ = in.u8() != 0;
    critLastL1Outcome_ = in.u8();
    spStageFreeAt_ = in.u64();
    sfuStageFreeAt_ = in.u64();
    l1_.load(in);
}

} // namespace gcl::sim
