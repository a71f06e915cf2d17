#include "gpu.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "core/classifier.hh"
#include "guard/cancel.hh"
#include "guard/sim_error.hh"
#include "snap/io.hh"
#include "snap/snapshot.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace gcl::sim
{

Gpu::Gpu(GpuConfig config)
    : config_(config), stats_(config_), icnt_(config_, pools_),
      watchdog_(config_.watchdogInterval, config_.watchdogBudget)
{
    if (!config_.faultPlan.empty())
        fault_ = std::make_unique<guard::FaultInjector>(
            guard::FaultPlan::parse(config_.faultPlan));
    samplePlan_ = SamplePlan::parse(config_.sample);
    if (config_.crit)
        crit_ = std::make_unique<crit::CritStats>(config_.numSchedulers);
    sms_.reserve(config_.numSms);
    for (unsigned s = 0; s < config_.numSms; ++s) {
        sms_.push_back(std::make_unique<Sm>(static_cast<int>(s), config_,
                                            gmem_, stats_, pools_));
        sms_.back()->partitionMap = &Gpu::mapPartition;
        sms_.back()->fault = fault_.get();
        // One crit shard per SM, created in SM-id order, the order
        // finalize reads them in.
        if (crit_)
            sms_.back()->crit = &crit_->newShard();
        // Global stores/atomics commit at end of cycle in SM-id order
        // (the end-of-cycle write rule; see functional.hh).
        sms_.back()->enableWriteStaging();
    }
    partitions_.reserve(config_.numPartitions);
    for (unsigned p = 0; p < config_.numPartitions; ++p) {
        partitions_.push_back(std::make_unique<MemPartition>(
            static_cast<int>(p), config_, stats_, pools_));
        partitions_.back()->fault = fault_.get();
    }

    sleep_.resize(numUnits());
    awake_.assign(divCeil(numUnits(), 64), 0);
    gated_.assign(awake_.size(), 0);
    for (unsigned unit = 0; unit < numUnits(); ++unit)
        setBit(awake_, unit);
}

unsigned
Gpu::numUnits() const
{
    return config_.numSms + config_.numPartitions;
}

void
Gpu::attachTrace(trace::TraceSink *sink, Cycle timeline_interval)
{
    traceSink_ = sink;
    timelineInterval_ = sink ? timeline_interval : 0;
    for (auto &sm : sms_)
        sm->traceSink = sink;
    for (auto &part : partitions_)
        part->setTrace(sink);
}

void
Gpu::sampleTimeline(Cycle now) const
{
    using trace::CounterId;
    using trace::EventKind;

    uint64_t ctas = 0, warps = 0, ldst = 0, mshr = 0;
    for (const auto &sm : sms_) {
        ctas += sm->numResidentCtas();
        warps += sm->activeWarps();
        ldst += sm->ldstQueued();
        mshr += sm->l1().mshrOccupancy();
    }
    uint64_t rop = 0, dram = 0;
    for (const auto &part : partitions_) {
        rop += part->ropQueued();
        dram += part->dramQueued();
    }

    auto counter = [&](CounterId id, uint64_t value) {
        traceSink_->emit(EventKind::Counter, now,
                         static_cast<uint64_t>(id), value, 0, 0, 0);
    };
    counter(CounterId::ResidentCtas, ctas);
    counter(CounterId::ActiveWarps, warps);
    counter(CounterId::LdstQueued, ldst);
    counter(CounterId::L1MshrOccupancy, mshr);
    counter(CounterId::IcntReqQueued, icnt_.reqQueued());
    counter(CounterId::IcntRespQueued, icnt_.respQueued());
    counter(CounterId::RopQueued, rop);
    counter(CounterId::DramQueued, dram);
}

uint64_t
Gpu::deviceMalloc(size_t bytes)
{
    const uint64_t addr = gmem_.allocate(bytes);
    if (hostLogEnabled_) {
        if (resume_) {
            // Replaying the host program: the allocation sequence is a
            // deterministic function of the host code, so the addresses
            // must come out exactly as recorded — anything else means the
            // snapshot belongs to a different program or dataset.
            if (hostLogCursor_ >= hostLog_.size() ||
                hostLog_[hostLogCursor_].op != 0 ||
                hostLog_[hostLogCursor_].addr != addr ||
                hostLog_[hostLogCursor_].size != bytes)
                gcl_sim_error(SimError::Kind::Snapshot, "gpu", clock_,
                              "host replay diverged at deviceMalloc #",
                              hostLogCursor_, " (", bytes, " bytes at address ",
                              addr,
                              "): the snapshot was taken from a different "
                              "host program or dataset");
            ++hostLogCursor_;
        } else {
            hostLog_.push_back({0, addr, bytes, {}});
        }
    }
    return addr;
}

void
Gpu::memcpyToDevice(uint64_t dst, const void *src, size_t bytes)
{
    // Runs for real even while resuming: the restore overwrites global
    // memory wholesale at the capture point, so replayed uploads are
    // merely redundant, never wrong.
    gmem_.writeBlock(dst, src, bytes);
}

void
Gpu::memcpyToHost(void *dst, uint64_t src, size_t bytes)
{
    if (hostLogEnabled_ && resume_) {
        // Serve the readback from the recorded log: mid-replay device
        // memory does not hold the values the original run produced.
        if (hostLogCursor_ >= hostLog_.size() ||
            hostLog_[hostLogCursor_].op != 1 ||
            hostLog_[hostLogCursor_].addr != src ||
            hostLog_[hostLogCursor_].size != bytes)
            gcl_sim_error(SimError::Kind::Snapshot, "gpu", clock_,
                          "host replay diverged at memcpyToHost #",
                          hostLogCursor_, " (", bytes, " bytes from address ",
                          src,
                          "): the snapshot was taken from a different "
                          "host program or dataset");
        std::memcpy(dst, hostLog_[hostLogCursor_].data.data(), bytes);
        ++hostLogCursor_;
        return;
    }
    gmem_.readBlock(src, dst, bytes);
    if (hostLogEnabled_) {
        HostLogEntry entry{1, src, bytes, {}};
        entry.data.resize(bytes);
        std::memcpy(entry.data.data(), dst, bytes);
        hostLog_.push_back(std::move(entry));
    }
}

int
Gpu::mapPartition(uint64_t line_addr, int sm_id, const GpuConfig &config)
{
    const uint64_t line = line_addr / config.l1.lineBytes;

    if (config.smsPerL2Cluster == 0) {
        // Baseline: all SMs stripe over all partitions.
        return static_cast<int>(line % config.numPartitions);
    }

    // Semi-global L2 (Section X.C): each cluster of SMs owns a contiguous
    // slice of the partitions.
    const unsigned num_clusters =
        divCeil(config.numSms, config.smsPerL2Cluster);
    unsigned parts_per_cluster =
        std::max(1u, config.numPartitions / num_clusters);
    const unsigned cluster =
        static_cast<unsigned>(sm_id) / config.smsPerL2Cluster;
    const unsigned base =
        (cluster * parts_per_cluster) % config.numPartitions;
    return static_cast<int>((base + line % parts_per_cluster) %
                            config.numPartitions);
}

int
Gpu::nextCtaSm(const DispatchState &dispatch) const
{
    if (dispatch.next == dispatch.total)
        return -1;
    // Clustered dispatch packs neighboring CTAs onto the same SM in
    // batches, and a windowed launch (sampled simulation) pins each
    // listed id to the SM its id would get from this policy's first
    // dispatch wave in a full run — the window must see the warmed L1 of
    // the RIGHT SM, and cross-launch L1 reuse must land where the full
    // run leaves it. Both are strict (head-of-line): the designated SM
    // must have room before the next CTA can be placed.
    if (dispatch.ctaList || config_.ctaSched == CtaSchedPolicy::Clustered) {
        const uint64_t linear = dispatch.ctaList
            ? (*dispatch.ctaList)[dispatch.next]
            : dispatch.next;
        const unsigned sm = static_cast<unsigned>(
            config_.ctaSched == CtaSchedPolicy::Clustered
                ? (linear / config_.ctaClusterSize) % config_.numSms
                : linear % config_.numSms);
        return sms_[sm]->canTakeCta() ? static_cast<int>(sm) : -1;
    }
    // Baseline round-robin: each new CTA goes to the next SM with a free
    // slot (Section X.B describes this as today's hardware policy).
    for (unsigned i = 0; i < config_.numSms; ++i) {
        const unsigned sm = (dispatch.rrSm + i) % config_.numSms;
        if (sms_[sm]->canTakeCta())
            return static_cast<int>(sm);
    }
    return -1;
}

void
Gpu::dispatchCtas(DispatchState &dispatch, Cycle now)
{
    const LaunchContext &launch = *dispatch.launch;
    for (int sm = nextCtaSm(dispatch); sm >= 0; sm = nextCtaSm(dispatch)) {
        const uint64_t linear = dispatch.ctaList
            ? (*dispatch.ctaList)[dispatch.next]
            : dispatch.next;
        // A placement wakes the SM before launchCta, so the span credit
        // still sees the state the SM slept in (a clustered dispatch can
        // also land a CTA on a frozen busy SM with a free slot).
        if (!testBit(awake_, static_cast<size_t>(sm)))
            wakeUnit(static_cast<size_t>(sm), now);
        const uint32_t cx = static_cast<uint32_t>(linear % launch.grid.x);
        const uint32_t cy =
            static_cast<uint32_t>((linear / launch.grid.x) % launch.grid.y);
        const uint32_t cz =
            static_cast<uint32_t>(linear / (uint64_t{launch.grid.x} *
                                            launch.grid.y));
        sms_[sm]->launchCta(static_cast<uint32_t>(linear), cx, cy, cz);
        ++dispatch.next;
        // Only the round-robin policy reads the pointer.
        dispatch.rrSm = (static_cast<unsigned>(sm) + 1) % config_.numSms;
    }
}

bool
Gpu::allIdle() const
{
    for (const auto &sm : sms_)
        if (sm->busy())
            return false;
    if (!icnt_.idle())
        return false;
    for (const auto &part : partitions_)
        if (!part->idle())
            return false;
    return true;
}

void
Gpu::sleepUnit(size_t unit, Cycle from, Cycle wake_at)
{
    clearBit(awake_, unit);
    const bool gate = unit < config_.numSms
        ? sms_[unit]->ldstStalledOnIcnt()
        : partitions_[unit - config_.numSms]->canAcceptArrival();
    if (gate)
        setBit(gated_, unit);
    SleepState &state = sleep_[unit];
    state.from = from;
    state.wakeAt = wake_at;
    alarm_ = std::min(alarm_, wake_at);
}

void
Gpu::wakeUnit(size_t unit, Cycle resume)
{
    setBit(awake_, unit);
    clearBit(gated_, unit);
    const SleepState &state = sleep_[unit];
    if (resume <= state.from)
        return;
    // A sleeper's state is frozen, so busy() still tells which loop body
    // the eager run ticked through the span.
    const uint64_t span = resume - state.from;
    dormantCycles_ += span;
    if (unit >= config_.numSms)
        partitions_[unit - config_.numSms]->skipCycles(state.from, span);
    else if (sms_[unit]->busy())
        sms_[unit]->skipCycles(state.from, span);
    else
        sms_[unit]->idleCycles(span);
}

void
Gpu::wakeByAlarm(Cycle now)
{
    Cycle next = kNever;
    forEachClearBit(awake_, 0, numUnits(), [&](size_t unit) {
        const Cycle wake_at = sleep_[unit].wakeAt;
        if (wake_at <= now)
            wakeUnit(unit, now);
        else
            next = std::min(next, wake_at);
    });
    alarm_ = next;
}

void
Gpu::wakeAll(Cycle resume)
{
    forEachClearBit(awake_, 0, numUnits(),
                    [&](size_t unit) { wakeUnit(unit, resume); });
    alarm_ = kNever;
}

Cycle
Gpu::wakeAtFor(size_t unit, Cycle now) const
{
    // A unit's certificate is already kNever once it is drained.
    if (unit >= config_.numSms)
        return partitions_[unit - config_.numSms]->nextEventCycle(now);
    const Sm &sm = *sms_[unit];
    // A FailIcnt-frozen head whose injection credit already came back
    // (this cycle's arbitration popped the queue) retries next cycle.
    if (sm.ldstStalledOnIcnt() && icnt_.canInject(static_cast<int>(unit)))
        return now + 1;
    return sm.nextEventCycle(now);
}

void
Gpu::launch(const ptx::Kernel &kernel, Dim3 grid, Dim3 cta,
            std::vector<uint64_t> params)
{
    if (cta.count() == 0 || grid.count() == 0)
        gcl_sim_error(SimError::Kind::Workload, "gpu", clock_,
                      "empty launch of '", kernel.name(), "'");
    if (cta.count() > config_.maxThreadsPerSm)
        gcl_sim_error(SimError::Kind::Workload, "gpu", clock_,
                      "launch of '", kernel.name(), "': CTA of ",
                      cta.count(), " threads exceeds the SM capacity of ",
                      config_.maxThreadsPerSm);
    if (params.size() < kernel.numParams())
        gcl_sim_error(SimError::Kind::Workload, "gpu", clock_,
                      "launch of '", kernel.name(), "' with ",
                      params.size(), " params; kernel declares ",
                      kernel.numParams());

    if (resume_) {
        // The functional prefix was captured at the ENTRY of launch
        // resumeTarget_, after its fast-forward prefix but before any
        // timed work. Launches before the target were fully
        // fast-forwarded; skip them outright (global memory is restored
        // wholesale). At the target, restore and fall through to
        // simulate — applyRestore leaves ffSkipCtas_ for this launch's
        // fast-forward loop to consume.
        if (kernelsDone_ < resumeTarget_) {
            ++kernelsDone_;
            GCL_DEBUG("gpu", "ff-resume: skipping fast-forwarded launch ",
                      kernelsDone_, " ('", kernel.name(), "')");
            return;
        }
        applyRestore();
    }

    // Boundary 0: the pristine device before the first launch.
    if (boundaryHook_ && !firstBoundaryFired_) {
        firstBoundaryFired_ = true;
        boundaryHook_(kernelsDone_);
    }

    LaunchContext launch;
    launch.kernel = &kernel;
    launch.cfg = std::make_unique<ptx::Cfg>(kernel);
    launch.grid = grid;
    launch.cta = cta;
    launch.params = std::move(params);

    // Section V: classify every global load once, statically. The dense
    // class table joins the verdicts into crit's stall attribution (and is
    // cheap enough to build even when the profiler is off).
    core::LoadClassifier classifier(kernel);
    launch.nonDetPc.assign(kernel.size(), false);
    launch.pcLoadClass.assign(kernel.size(), 0);
    for (const auto &info : classifier.globalLoads()) {
        const bool non_det = info.cls == core::LoadClass::NonDeterministic;
        launch.nonDetPc[info.pc] = non_det;
        launch.pcLoadClass[info.pc] = non_det ? 2 : 1;
    }

    // Precompute each pc's scoreboard dependence mask (sources, guard
    // predicate, destination) so the per-cycle issue check is a word-wise
    // AND instead of a walk over the operand list.
    launch.sbWords = (kernel.numRegs() + 63) / 64;
    launch.sbMask.assign(kernel.size() * launch.sbWords, 0);
    launch.issueClass.assign(kernel.size(), LaunchContext::IssueSp);
    launch.opLatency.assign(kernel.size(), 1);
    launch.opInitiation.assign(kernel.size(), 1);
    for (size_t pc = 0; pc < kernel.size(); ++pc) {
        const ptx::Instruction &inst = kernel.inst(pc);
        // Resolve the machine description's opcode-class timing to dense
        // per-pc values the issue path can read without re-classifying.
        const FuTiming &timing =
            config_.opTiming[static_cast<size_t>(opClassFor(inst.op,
                                                            inst.type))];
        launch.opLatency[pc] = static_cast<uint16_t>(timing.latency);
        launch.opInitiation[pc] =
            static_cast<uint16_t>(timing.initiation);
        if (inst.isExit())
            launch.issueClass[pc] = LaunchContext::IssueExit;
        else if (inst.isBarrier())
            launch.issueClass[pc] = LaunchContext::IssueBarrier;
        else if (inst.isMemory())
            launch.issueClass[pc] = LaunchContext::IssueMemory;
        else if (inst.isSfu())
            launch.issueClass[pc] = LaunchContext::IssueSfu;
        uint64_t *mask = &launch.sbMask[pc * launch.sbWords];
        auto mark = [&](ptx::RegId r) {
            mask[r / 64] |= uint64_t{1} << (r % 64);
        };
        for (const auto &src : inst.srcs)
            if (src.isReg())
                mark(src.reg);
        if (inst.guarded)
            mark(inst.predReg);
        if (inst.writesDst())
            mark(inst.dst);
    }

    // ---- Sampled simulation (config.sample): split the grid ----
    //
    // Non-detailed CTAs retire functionally (fastForwardCtas); only the
    // detailed window runs through the timed machine. A CTA window keeps
    // the ids after the window for AFTER the timed session, so the warm
    // ring holds exactly the window's preceding accesses; every other
    // mode fast-forwards all non-detailed CTAs up front.
    const uint64_t launchIndex = kernelsDone_;
    std::vector<uint64_t> detailedList;   //!< windowed dispatch ids
    std::vector<uint64_t> ffTail;         //!< fast-forwarded after the window
    bool windowed = false;
    // Occupancy waves of an n-CTA grid under this launch's per-SM
    // residency — the extrapolation unit.
    auto wavesOf = [&](uint64_t n) -> uint64_t {
        const uint64_t wave = ctasPerWave(launch);
        return (n + wave - 1) / wave;
    };
    if (samplePlan_.active()) {
        const uint64_t total = grid.count();
        const uint64_t ff_skip = ffSkipCtas_;   // consumed by the restored
        ffSkipCtas_ = 0;                        // launch only
        if (ff_skip == 0)
            ffLaunchWork_ = 0; // else: restored prefix work, keep it
        std::vector<uint64_t> detailed =
            samplePlan_.kernelDetailed(launchIndex)
                ? std::vector<uint64_t>{}
                : samplePlan_.detailedCtas(launchIndex, total);
        const bool fully_detailed = samplePlan_.kernelDetailed(launchIndex)
            || detailed.size() == total;
        if (fully_detailed) {
            beginDetailedWork(0);
        } else {
            std::vector<uint64_t> prefix;
            if (samplePlan_.mode == SamplePlan::Mode::CtaWindow &&
                !detailed.empty()) {
                for (uint64_t i = 0; i < detailed.front(); ++i)
                    prefix.push_back(i);
                for (uint64_t i = detailed.back() + 1; i < total; ++i)
                    ffTail.push_back(i);
            } else {
                size_t d = 0;
                for (uint64_t i = 0; i < total; ++i) {
                    if (d < detailed.size() && detailed[d] == i) {
                        ++d;
                        continue;
                    }
                    prefix.push_back(i);
                }
            }
            fastForwardCtas(launch, prefix, ff_skip);
            if (detailed.empty()) {
                // Whole launch fast-forwarded: no timed session, no
                // launches/ctas_launched stats — only the book entry the
                // extrapolation needs.
                sampleBook_.push_back({launchIndex, total, 0, 0,
                                       wavesOf(total), 0, 0,
                                       ffLaunchWork_});
                GCL_DEBUG("gpu", "launch '", kernel.name(),
                          "': fast-forwarded all ", total, " CTAs");
                lastLaunchCycles_ = 0;
                ++kernelsDone_;
                if (boundaryHook_)
                    boundaryHook_(kernelsDone_);
                return;
            }
            beginDetailedWork(prefix.size());
            warmCaches();
            // The window leaves real tag state behind; drop the replayed
            // entries so they cannot pollute the next window's warm-up.
            warmRing_.clear();
            warmHead_ = 0;
            detailedList = std::move(detailed);
            windowed = true;
        }
    }

    for (auto &sm : sms_)
        sm->startLaunch(launch);

    DispatchState dispatch;
    dispatch.total = windowed ? detailedList.size() : grid.count();
    dispatch.launch = &launch;
    if (windowed)
        dispatch.ctaList = &detailedList;

    stats_.set().inc("launches");
    stats_.set().inc("ctas_launched", static_cast<double>(dispatch.total));
    stats_.set().set("threads_per_cta", static_cast<double>(cta.count()));

    if (windowed)
        GCL_DEBUG("gpu", "launch '", kernel.name(), "': detailed window of ",
                  detailedList.size(), " / ", grid.count(), " CTAs");
    GCL_DEBUG("gpu", "launch '", kernel.name(), "': ", grid.count(),
              " CTAs x ", cta.count(), " threads");

    // Thread-instructions the timed session will issue — the work unit
    // the extrapolation uses to price fast-forwarded launches.
    const uint64_t workBefore = stats_.hot.threadInsts;

    // Cycle 0 is reserved as the "unset timestamp" sentinel; the clock is
    // global and monotonic across launches.
    const Cycle start = clock_ + 1;
    watchdog_.beginLaunch(start, stats_.hot.warpInsts,
                          stats_.hot.reqsCompleted);
    // Units sleep only with cycle skipping on. With it off nothing
    // sleeps, and this same loop body is the eager cycle-by-cycle
    // reference every skipping run is proved bit-identical against
    // (tests/test_skip.cc). Every unit enters a launch awake: the
    // previous launch settled all sleepers at its exit.
    const bool skip_on = config_.cycleSkipping;
    Cycle now = start;
    for (;; ++now) {
        // max_cycles budgets the whole run (the global clock), so a
        // many-launch app cannot dodge the cap launch by launch.
        if (now >= config_.maxCycles) {
            // Cycle `now` never runs, so sleeps end at it: after the
            // settle, every counter matches the eager loop's at the
            // moment it would throw the identical error.
            wakeAll(now);
            gcl_sim_error(SimError::Kind::Timeout, "gpu", now,
                          "run exceeded its budget of ", config_.maxCycles,
                          " cycles during launch of '", kernel.name(), "'");
        }
        if (fault_ && fault_->stopKernel(now)) {
            wakeAll(now);
            gcl_sim_error(SimError::Kind::FaultInjected, "gpu", now,
                          "fault plan stopped kernel '", kernel.name(),
                          "'");
        }
        // Cooperative cancellation (SIGINT/SIGTERM via the bench runner):
        // polled between cycles, so the unwind never leaves a cycle half
        // ticked. ~1k-cycle granularity keeps the poll invisible on the
        // hot path.
        if ((now & 0x3ff) == 0 && guard::cancelRequested()) {
            wakeAll(now);
            gcl_sim_error(SimError::Kind::Canceled, "gpu", now,
                          "run cancelled during launch of '", kernel.name(),
                          "'");
        }
        if (watchdog_.onCycle(now, stats_.hot.warpInsts,
                              stats_.hot.reqsCompleted)) {
            // Double-fault guard: composing the per-unit detail walks
            // hung data structures, which may themselves trip an
            // invariant. The hang must still surface with at least
            // its conservation counters, so a nested error degrades
            // the report instead of replacing it.
            // The report's per-SM detail must match the eager loop's,
            // so settle every sleeper first (through now - 1: this
            // cycle never ran).
            wakeAll(now);
            auto report = std::make_shared<guard::HangReport>();
            try {
                *report = buildHangReport(kernel.name(), now);
            } catch (const SimError &nested) {
                report->kernel = kernel.name();
                report->cycle = now;
                report->lastProgressCycle = watchdog_.lastProgressCycle();
                report->stallCycles = now - report->lastProgressCycle;
                report->compositionError = nested.message();
            }
            // Final timeline sample so a Chrome-trace export shows the
            // queue occupancies of the hung window.
            if (GCL_TRACE_ACTIVE(traceSink_))
                sampleTimeline(now);
            SimError error(SimError::Kind::Hang, "gpu", now,
                           report->summary());
            error.hangReport = std::move(report);
            throw error;
        }

        // ---- Wakes before the tick ----
        // A sleeper's wakeAt does not change while it sleeps and no SM's
        // tick touches another unit's wake inputs, so waking by the alarm
        // and by the SM gates here equals asking right before each
        // unit's tick slot.
        if (alarm_ <= now)
            wakeByAlarm(now);
        dispatchCtas(dispatch, now);
        forEachSetBit(gated_, 0, config_.numSms, [&](size_t s) {
            if (icnt_.canInject(static_cast<int>(s)))
                wakeUnit(s, now);
        });

        // ---- Tick ----
        forEachSetBit(awake_, 0, config_.numSms, [&](size_t s) {
            // Idle SMs still tick the Fig 4 denominator but skip the
            // pipeline walk.
            Sm &sm = *sms_[s];
            if (sm.busy())
                sm.cycle(now, icnt_);
            else
                sm.idleCycle();
        });
        icnt_.cycle(now);
        // Asked after the arbitration: a latency-0 crossbar delivers a
        // flit in the cycle it was pushed, and the partition must accept
        // it at that exact cycle.
        forEachSetBit(gated_, config_.numSms, numUnits(), [&](size_t unit) {
            if (icnt_.hasRequest(static_cast<int>(unit - config_.numSms),
                                 now))
                wakeUnit(unit, now);
        });
        forEachSetBit(awake_, config_.numSms, numUnits(), [&](size_t unit) {
            // A drained partition with no arriving flit would run a no-op
            // cycle.
            const size_t p = unit - config_.numSms;
            MemPartition &part = *partitions_[p];
            if (part.idle() && !icnt_.hasRequest(static_cast<int>(p), now))
                return;
            part.cycle(now, icnt_);
        });
        // Responses reach a sleeping SM here, not in the tick pass: its
        // certificate proves its tick at now did nothing, so its span
        // runs through now inclusive and the delivery wakes it for the
        // next cycle.
        forEachSetBit(icnt_.deliveryPending(), 0, config_.numSms,
                      [&](size_t s) {
            if (!icnt_.hasResponse(static_cast<int>(s), now))
                return;
            if (!testBit(awake_, s))
                wakeUnit(s, now + 1);
            sms_[s]->drainResponses(now, icnt_);
        });

        // ---- End of cycle: write commit, then the sleep pass ----
        // Staged writes commit in SM-id order; a sleeper never executed
        // this cycle, so it has nothing staged. The sleep decision reads
        // end-of-cycle committed state.
        forEachSetBit(awake_, 0, numUnits(), [&](size_t unit) {
            if (unit < config_.numSms)
                sms_[unit]->commitStagedWrites();
            if (!skip_on)
                return;
            const Cycle wake = wakeAtFor(unit, now);
            if (wake > now + 1)
                sleepUnit(unit, now + 1, wake);
        });

        if (timelineInterval_ != 0 && GCL_TRACE_ACTIVE(traceSink_) &&
            (now - start) % timelineInterval_ == 0)
            sampleTimeline(now);

        // Done means every unit drained, not every unit asleep: under a
        // dropped fill the SMs sleep at kNever with the crossbar empty,
        // and that run must still end in the eager loop's Hang. With
        // skipping on, a drained unit is asleep by now, so the scan only
        // runs once nothing is awake.
        if (dispatch.next == dispatch.total &&
            (!skip_on || noBitSet(awake_)) && allIdle())
            break;
    }

    wakeAll(now + 1);

    // Conservation: every data-expecting request the L1s accepted must
    // have completed by the time the device drained.
    gcl_sim_check(stats_.hot.reqsIssued == stats_.hot.reqsCompleted, "gpu",
                  now, stats_.hot.reqsIssued, " requests issued but ",
                  stats_.hot.reqsCompleted,
                  " completed at the end of launch of '", kernel.name(),
                  "'");

    clock_ = now;
    lastLaunchCycles_ = now - start + 1;
    stats_.set().inc("cycles", static_cast<double>(lastLaunchCycles_));
    GCL_DEBUG("gpu", "launch '", kernel.name(), "' retired after ",
              lastLaunchCycles_, " cycles");

    // Sampled simulation: record the window for the extrapolation and
    // fast-forward the CTAs after the window (CTA-window mode).
    if (samplePlan_.active()) {
        const uint64_t det =
            windowed ? detailedList.size() : grid.count();
        const uint64_t detWork = stats_.hot.threadInsts - workBefore;
        if (!ffTail.empty())
            fastForwardCtas(launch, ffTail, 0);
        sampleBook_.push_back({launchIndex, grid.count(), det,
                               lastLaunchCycles_, wavesOf(grid.count()),
                               wavesOf(det), detWork, ffLaunchWork_});
    }

    // Kernel boundary: the device is fully drained (the conservation
    // check above).
    ++kernelsDone_;
    if (boundaryHook_)
        boundaryHook_(kernelsDone_);
}

uint64_t
Gpu::ctasPerWave(const LaunchContext &launch) const
{
    const unsigned warps_per_cta = launch.warpsPerCta(config_.warpSize);
    const unsigned by_warps = std::max(
        1u, (config_.maxThreadsPerSm / config_.warpSize) / warps_per_cta);
    const unsigned per_sm = std::min(
        config_.ctasPerSm(static_cast<unsigned>(launch.cta.count()),
                          launch.kernel->sharedMemBytes()),
        by_warps);
    return uint64_t{std::max(1u, per_sm)} * config_.numSms;
}

void
Gpu::fastForwardCtas(const LaunchContext &launch,
                     const std::vector<uint64_t> &ids, uint64_t skip)
{
    if (ids.size() <= skip)
        return;
    // The executor applies memory effects immediately (no write staging):
    // fast-forward retires one instruction at a time, so the retire order
    // below IS the canonical order.
    if (!ffExec_)
        ffExec_ = std::make_unique<WarpExecutor>(gmem_, config_.warpSize);
    const unsigned warps_per_cta = launch.warpsPerCta(config_.warpSize);
    const auto cta_threads = static_cast<uint32_t>(launch.cta.count());
    const uint64_t wave = ctasPerWave(launch);

    // Fast-forward runs wave by wave: one resident slot per CTA of the
    // current occupancy wave, round-robin one instruction per live warp
    // across the WHOLE wave in (cta, warp) index order. Concurrent CTAs
    // see each other's global stores at the same granularity the timed
    // machine's resident wave would — a CTA-at-a-time order would let
    // data-dependent host loops (relaxation sweeps reading results back)
    // converge in fewer kernel launches than a detailed run, skewing the
    // extrapolation. Still one instruction at a time on the calling
    // thread: deterministic and byte-reproducible.
    struct FfCta
    {
        CtaContext cta;
        std::vector<WarpContext> warps;
    };
    std::vector<FfCta> slots;
    StepInfo info;

    for (size_t base = skip; base < ids.size(); base += wave) {
        const size_t count =
            std::min(static_cast<size_t>(wave), ids.size() - base);
        if (slots.size() < count)
            slots.resize(count);
        for (size_t c = 0; c < count; ++c) {
            const uint64_t linear = ids[base + c];
            CtaContext &cta = slots[c].cta;
            cta.active = true;
            cta.ctaX = static_cast<uint32_t>(linear % launch.grid.x);
            cta.ctaY = static_cast<uint32_t>((linear / launch.grid.x) %
                                             launch.grid.y);
            cta.ctaZ = static_cast<uint32_t>(
                linear / (uint64_t{launch.grid.x} * launch.grid.y));
            cta.linearId = static_cast<uint32_t>(linear);
            cta.numWarps = warps_per_cta;
            cta.warpsDone = 0;
            cta.warpsAtBarrier = 0;
            if (launch.kernel->sharedMemBytes() > 0)
                cta.shared = std::make_unique<SharedMemory>(
                    launch.kernel->sharedMemBytes());
            else
                cta.shared.reset();
            slots[c].warps.resize(warps_per_cta);
            for (unsigned w = 0; w < warps_per_cta; ++w) {
                WarpContext &warp = slots[c].warps[w];
                warp.active = true;
                warp.ctaSlot = 0;
                warp.warpInCta = w;
                warp.threadBase = w * config_.warpSize;
                warp.atBarrier = false;
                warp.inflightOps = 0;
                warp.initRegs(launch.kernel->numRegs(), config_.warpSize);
                LaneMask mask = 0;
                for (unsigned lane = 0; lane < config_.warpSize; ++lane)
                    if (warp.threadBase + lane < cta_threads)
                        mask |= LaneMask{1} << lane;
                warp.stack.reset(mask, launch.kernel->size());
            }
        }

        size_t ctas_live = count;
        while (ctas_live > 0) {
            if (guard::cancelRequested())
                gcl_sim_error(SimError::Kind::Canceled, "gpu", clock_,
                              "cancelled while fast-forwarding '",
                              launch.kernel->name(), "'");
            bool progressed = false;
            for (size_t c = 0; c < count; ++c) {
                CtaContext &cta = slots[c].cta;
                if (cta.warpsDone == cta.numWarps)
                    continue;
                std::vector<WarpContext> &warps = slots[c].warps;

                auto releaseBarrier = [&] {
                    for (unsigned w = 0; w < warps_per_cta; ++w)
                        if (warps[w].active)
                            warps[w].atBarrier = false;
                    cta.warpsAtBarrier = 0;
                };
                auto retireWarp = [&](WarpContext &warp) {
                    warp.active = false;
                    ++cta.warpsDone;
                    if (cta.warpsDone == cta.numWarps)
                        return;
                    if (cta.warpsAtBarrier > 0 &&
                        cta.warpsAtBarrier == cta.numWarps - cta.warpsDone)
                        releaseBarrier();
                };

                for (unsigned w = 0; w < warps_per_cta; ++w) {
                    WarpContext &warp = warps[w];
                    if (!warp.active || warp.atBarrier)
                        continue;
                    const size_t pc = warp.stack.pc();
                    const LaneMask active = warp.stack.activeMask();
                    ffExec_->step(launch, cta, warp, pc, active, info);
                    progressed = true;
                    ffLaunchWork_ +=
                        static_cast<uint64_t>(std::popcount(active));
                    switch (info.kind) {
                      case StepInfo::Kind::Memory:
                        recordWarm(info, cta.linearId);
                        warp.stack.advance();
                        break;
                      case StepInfo::Kind::Branch:
                        warp.stack.branch(info.takenMask, info.targetPc,
                                          launch.cfg->reconvergencePc(pc));
                        if (warp.stack.done())
                            retireWarp(warp);
                        break;
                      case StepInfo::Kind::Barrier:
                        warp.stack.advance();
                        warp.atBarrier = true;
                        ++cta.warpsAtBarrier;
                        if (cta.warpsAtBarrier ==
                            cta.numWarps - cta.warpsDone)
                            releaseBarrier();
                        break;
                      case StepInfo::Kind::Exit:
                        warp.stack.exitLanes(active);
                        if (warp.stack.done())
                            retireWarp(warp);
                        break;
                      default:    // Alu, Sfu, Nop
                        warp.stack.advance();
                        break;
                    }
                }
                if (cta.warpsDone == cta.numWarps)
                    --ctas_live;
            }
            if (!progressed)
                gcl_sim_error(SimError::Kind::Invariant, "gpu", clock_,
                              "fast-forward deadlock in '",
                              launch.kernel->name(),
                              "': every live warp waits at a barrier");
        }
    }
}

void
Gpu::recordWarm(const StepInfo &info, uint64_t cta_linear)
{
    if (info.space != ptx::MemSpace::Global)
        return;
    if (!info.isLoad && !info.isStore && !info.isAtomic)
        return;
    constexpr uint64_t kChunk = 128;
    const uint8_t is_store = (info.isStore || info.isAtomic) ? 1 : 0;
    // Dedup within the instruction (one entry per touched chunk), like
    // the coalescer would.
    uint64_t chunks[64];
    unsigned n = 0;
    for (const auto &[lane, addr] : info.addrs) {
        const uint64_t chunk = addr & ~(kChunk - 1);
        bool dup = false;
        for (unsigned i = 0; i < n; ++i)
            if (chunks[i] == chunk) {
                dup = true;
                break;
            }
        if (dup)
            continue;
        if (n < 64)
            chunks[n++] = chunk;
        WarmEntry entry{chunk, static_cast<uint32_t>(cta_linear), is_store};
        if (warmRing_.size() < kWarmRingCapacity) {
            warmRing_.push_back(entry);
        } else {
            warmRing_[warmHead_] = entry;
            warmHead_ = (warmHead_ + 1) % kWarmRingCapacity;
        }
    }
}

void
Gpu::warmCaches()
{
    auto replay = [&](const WarmEntry &entry) {
        const unsigned sm = entry.cta % config_.numSms;
        if (!entry.isStore) {
            // Loads allocate in the home SM's L1; stores and atomics
            // bypass it (no-write-allocate, see Sm::ldstCycle).
            const uint64_t l1_line =
                entry.chunk & ~uint64_t{config_.l1.lineBytes - 1};
            sms_[sm]->warmL1(l1_line);
        }
        const int part =
            mapPartition(entry.chunk, static_cast<int>(sm), config_);
        const uint64_t l2_line =
            entry.chunk & ~uint64_t{config_.l2.lineBytes - 1};
        partitions_[static_cast<size_t>(part)]->warmL2(l2_line);
    };
    if (warmRing_.size() < kWarmRingCapacity) {
        for (const WarmEntry &entry : warmRing_)
            replay(entry);
        return;
    }
    for (size_t i = warmHead_; i < warmRing_.size(); ++i)
        replay(warmRing_[i]);
    for (size_t i = 0; i < warmHead_; ++i)
        replay(warmRing_[i]);
}

void
Gpu::beginDetailedWork(uint64_t ff_in_launch)
{
    if (timedWorkDone_)
        return;
    timedWorkDone_ = true;
    if (!ffPrefixHook_)
        return;
    if (kernelsDone_ == 0 && ff_in_launch == 0)
        return;    // no functional prefix to share
    ffCaptureCtaIndex_ = ff_in_launch;
    ffPrefixHook_();
}

guard::HangReport
Gpu::buildHangReport(const std::string &kernel, Cycle now) const
{
    guard::HangReport report;
    report.kernel = kernel;
    report.cycle = now;
    report.lastProgressCycle = watchdog_.lastProgressCycle();
    report.stallCycles = now - report.lastProgressCycle;
    report.instsIssued = stats_.hot.warpInsts;
    report.reqsIssued = stats_.hot.reqsIssued;
    report.reqsCompleted = stats_.hot.reqsCompleted;
    report.icntReqQueued = icnt_.reqQueued();
    report.icntRespQueued = icnt_.respQueued();
    report.sms.reserve(sms_.size());
    for (const auto &sm : sms_)
        report.sms.push_back(sm->hangInfo());
    report.partitions.reserve(partitions_.size());
    for (const auto &part : partitions_)
        report.partitions.push_back(part->hangInfo());
    return report;
}

void
Gpu::saveHostLog(snap::SnapWriter &out) const
{
    out.u64(hostLog_.size());
    for (const HostLogEntry &entry : hostLog_) {
        out.u8(entry.op);
        out.u64(entry.addr);
        out.u64(entry.size);
        if (entry.op == 1)
            out.raw(entry.data.data(), entry.data.size());
    }
}

void
Gpu::loadHostLog(snap::SnapReader &in)
{
    hostLog_.clear();
    hostLogCursor_ = 0;
    const uint64_t count = in.count(1 + 2 * sizeof(uint64_t));
    hostLog_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        HostLogEntry entry;
        entry.op = in.u8();
        entry.addr = in.u64();
        entry.size = in.u64();
        if (entry.op == 1) {
            const uint8_t *payload = in.rawRead(entry.size);
            entry.data.assign(payload, payload + entry.size);
        }
        hostLog_.push_back(std::move(entry));
    }
}

void
Gpu::saveSampleState(snap::SnapWriter &out) const
{
    out.u8(timedWorkDone_ ? 1 : 0);
    out.u64(sampleBook_.size());
    for (const SampleLaunch &entry : sampleBook_) {
        out.u64(entry.kernel);
        out.u64(entry.totalCtas);
        out.u64(entry.detailedCtas);
        out.u64(entry.detailedCycles);
        out.u64(entry.totalWaves);
        out.u64(entry.detailedWaves);
        out.u64(entry.detailedWork);
        out.u64(entry.ffWork);
    }
    // Warm ring oldest-first, so a restored run replays (and keeps
    // recording) the same chronological stream as the uninterrupted one.
    out.u64(warmRing_.size());
    auto write = [&](const WarmEntry &entry) {
        out.u64(entry.chunk);
        out.u32(entry.cta);
        out.u8(entry.isStore);
    };
    if (warmRing_.size() < kWarmRingCapacity) {
        for (const WarmEntry &entry : warmRing_)
            write(entry);
    } else {
        for (size_t i = warmHead_; i < warmRing_.size(); ++i)
            write(warmRing_[i]);
        for (size_t i = 0; i < warmHead_; ++i)
            write(warmRing_[i]);
    }
}

void
Gpu::loadSampleState(snap::SnapReader &in)
{
    timedWorkDone_ = in.u8() != 0;
    sampleBook_.clear();
    const uint64_t launches = in.count(8 * sizeof(uint64_t));
    sampleBook_.reserve(launches);
    for (uint64_t i = 0; i < launches; ++i) {
        SampleLaunch entry;
        entry.kernel = in.u64();
        entry.totalCtas = in.u64();
        entry.detailedCtas = in.u64();
        entry.detailedCycles = in.u64();
        entry.totalWaves = in.u64();
        entry.detailedWaves = in.u64();
        entry.detailedWork = in.u64();
        entry.ffWork = in.u64();
        sampleBook_.push_back(entry);
    }
    warmRing_.clear();
    warmHead_ = 0;
    const uint64_t entries =
        in.count(sizeof(uint64_t) + sizeof(uint32_t) + 1);
    warmRing_.reserve(entries);
    for (uint64_t i = 0; i < entries; ++i) {
        WarmEntry entry;
        entry.chunk = in.u64();
        entry.cta = in.u32();
        entry.isStore = in.u8();
        warmRing_.push_back(entry);
    }
}

void
Gpu::saveFunctional(snap::Snapshot &snapshot) const
{
    {
        snap::SnapWriter &out = snapshot.section("ffstate");
        out.u64(kernelsDone_);
        out.u64(ffCaptureCtaIndex_);
        out.u64(ffLaunchWork_);
    }
    gmem_.save(snapshot.section("gmem"));
    saveHostLog(snapshot.section("hostlog"));
    saveSampleState(snapshot.section("sample"));
}

void
Gpu::beginResume(std::shared_ptr<const snap::Snapshot> snapshot)
{
    gcl_assert(clock_ == 0 && kernelsDone_ == 0,
               "beginResume on a device that already ran");
    // The prefix holds no timing state, so it is keyed by the
    // machine-independent functional fingerprint — cross-machine reuse
    // across a --machine sweep is the point. No machine-name check for the
    // same reason.
    if (snapshot->configFingerprint != config_.functionalFingerprint())
        gcl_sim_error(SimError::Kind::Snapshot, "gpu", 0,
                      "functional-prefix fingerprint mismatch: snapshot has ",
                      snap::hexFingerprint(snapshot->configFingerprint),
                      ", this run's functional config is ",
                      snap::hexFingerprint(config_.functionalFingerprint()));
    try {
        snap::SnapReader in = snapshot->reader("hostlog");
        loadHostLog(in);
    } catch (const snap::SnapIoError &error) {
        gcl_sim_error(SimError::Kind::Snapshot, "gpu", 0,
                      "malformed snapshot host log: ", error.what());
    }
    resumeSnap_ = std::move(snapshot);
    resumeTarget_ = resumeSnap_->kernelIndex;
    resume_ = true;
    hostLogEnabled_ = true;
}

void
Gpu::applyRestore()
{
    const snap::Snapshot &snapshot = *resumeSnap_;
    if (hostLogCursor_ != hostLog_.size())
        gcl_sim_error(SimError::Kind::Snapshot, "gpu", clock_,
                      "host replay diverged: ", hostLogCursor_, " of ",
                      hostLog_.size(),
                      " recorded host calls replayed at the restore "
                      "point — the snapshot was taken from a different "
                      "host program or dataset");
    // Restore global memory and the sampling bookkeeping; every timing
    // structure is still pristine (clock 0, empty caches) because the
    // prefix never ticked — that is what makes the snapshot shareable
    // across machines.
    try {
        {
            snap::SnapReader in = snapshot.reader("ffstate");
            kernelsDone_ = in.u64();
            ffSkipCtas_ = in.u64();
            ffLaunchWork_ = in.u64();
        }
        {
            snap::SnapReader in = snapshot.reader("gmem");
            gmem_.load(in);
        }
        {
            snap::SnapReader in = snapshot.reader("sample");
            loadSampleState(in);
        }
    } catch (const snap::SnapIoError &error) {
        gcl_sim_error(SimError::Kind::Snapshot, "gpu", clock_,
                      "malformed functional snapshot section: ",
                      error.what());
    }
    if (kernelsDone_ != resumeTarget_)
        gcl_sim_error(SimError::Kind::Snapshot, "gpu", clock_,
                      "functional snapshot kernel index ", resumeTarget_,
                      " does not match its own state ", kernelsDone_);
    resume_ = false;
    firstBoundaryFired_ = true;
    resumeSnap_.reset();
    GCL_DEBUG("gpu", "restored functional prefix at launch ", kernelsDone_,
              " + ", ffSkipCtas_, " CTAs");
}

void
Gpu::finalizeStats()
{
    // Export how often each configured fault actually fired; a plan whose
    // windows never overlapped the run shows explicit zeros.
    if (fault_) {
        for (unsigned k = 0;
             k < static_cast<unsigned>(guard::FaultKind::NumKinds); ++k) {
            const auto kind = static_cast<guard::FaultKind>(k);
            stats_.set().set(
                std::string("fault.injected.") + guard::toString(kind),
                static_cast<double>(fault_->injected(kind)));
        }
    }
    // Sampled simulation: extrapolate whole-run cycles from the detailed
    // windows. A launch with a window scales its own cycles-per-CTA to
    // its grid; a fully fast-forwarded launch borrows the pooled
    // cycles-per-CTA of every detailed window. The relative standard
    // error of the per-launch cycles-per-CTA annotates the confidence
    // (only meaningful with >= 2 detailed launches). sample.* keys exist
    // only when sampling is on, keeping sampling-off stats byte-identical.
    if (samplePlan_.active() && !sampleBook_.empty()) {
        // Whole-run cycle estimate from the book of per-launch windows.
        //   - A launch with a timed window extrapolates by OCCUPANCY WAVES
        //     (detailedCycles x totalWaves/detailedWaves): a sub-wave
        //     window of a latency-bound launch already costs one full
        //     wave, so scaling by raw CTA counts overestimates wildly.
        //   - A fully fast-forwarded launch is priced by its measured
        //     WORK (thread-instructions executed functionally) times the
        //     pooled cycles-per-thread-instruction of the timed windows —
        //     per-launch work tracks frontier growth / triangular shrink
        //     that a flat per-launch mean cannot see.
        double total_ctas = 0, det_ctas = 0, det_cycles = 0;
        double total_waves = 0, det_waves = 0;
        double det_work = 0, ff_work = 0;
        std::vector<double> cpis;  //!< per-window cycles per thread-inst
        for (const SampleLaunch &entry : sampleBook_) {
            total_ctas += static_cast<double>(entry.totalCtas);
            det_ctas += static_cast<double>(entry.detailedCtas);
            det_cycles += static_cast<double>(entry.detailedCycles);
            total_waves += static_cast<double>(entry.totalWaves);
            det_waves += static_cast<double>(entry.detailedWaves);
            det_work += static_cast<double>(entry.detailedWork);
            ff_work += static_cast<double>(entry.ffWork);
            if (entry.detailedWork > 0)
                cpis.push_back(static_cast<double>(entry.detailedCycles) /
                               static_cast<double>(entry.detailedWork));
        }
        const double pooled_cpi = det_work > 0 ? det_cycles / det_work : 0;
        double est = 0;
        for (const SampleLaunch &entry : sampleBook_) {
            if (entry.detailedWaves > 0)
                est += static_cast<double>(entry.detailedCycles) *
                       (static_cast<double>(entry.totalWaves) /
                        static_cast<double>(entry.detailedWaves));
            else
                est += static_cast<double>(entry.ffWork) * pooled_cpi;
        }
        auto &set = stats_.set();
        set.set("sample.launches",
                static_cast<double>(sampleBook_.size()));
        set.set("sample.detailed_launches",
                static_cast<double>(cpis.size()));
        set.set("sample.total_ctas", total_ctas);
        set.set("sample.detailed_ctas", det_ctas);
        set.set("sample.total_waves", total_waves);
        set.set("sample.detailed_waves", det_waves);
        set.set("sample.detailed_work", det_work);
        set.set("sample.ff_work", ff_work);
        if (det_ctas > 0)
            set.set("sample.factor", total_ctas / det_ctas);
        set.set("sample.est.cycles", est);
        if (cpis.size() >= 2) {
            // Relative standard error of the per-window cost rate — the
            // confidence annotation on sample.est.cycles.
            double mean = 0;
            for (double v : cpis)
                mean += v;
            mean /= static_cast<double>(cpis.size());
            double var = 0;
            for (double v : cpis)
                var += (v - mean) * (v - mean);
            var /= static_cast<double>(cpis.size() - 1);
            const double stderr_cpi =
                std::sqrt(var / static_cast<double>(cpis.size()));
            if (mean > 0)
                set.set("sample.est.cycles_stderr_pct",
                        100.0 * stderr_cpi / mean);
        }
    }
    // Fold the crit shards first: per-SM shards merge in creation order
    // into keyed adds.
    if (crit_)
        crit_->finalize(stats_.kernelNames(), stats_.set());
    stats_.finalize();
}

} // namespace gcl::sim
