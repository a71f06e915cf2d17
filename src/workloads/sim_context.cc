#include "sim_context.hh"

#include <cstring>

#include "guard/fault.hh"
#include "sim/gpu.hh"
#include "snap/io.hh"
#include "snap/snapshot.hh"
#include "util/logging.hh"

namespace gcl::workloads
{

SimContext::SimContext(const Workload &workload,
                       const sim::GpuConfig &config)
    : workload_(workload), config_(config)
{
    // An app-targeted fault plan (see guard::FaultPlan::appliesTo) is
    // stripped from runs it does not target, so those runs keep the clean
    // config fingerprint — and therefore the clean cache identity and
    // byte-identical stats — of a fault-free sweep.
    if (!config_.faultPlan.empty()) {
        try {
            if (!guard::FaultPlan::parse(config_.faultPlan)
                     .appliesTo(workload_.name))
                config_.faultPlan.clear();
        } catch (const SimError &) {
            // Unparsable spec: keep it; run() turns the parse error into
            // this run's structured failure record.
        }
    }
}

SimContext::~SimContext() = default;

void
SimContext::enableTrace(sim::Cycle timeline_interval,
                        trace::TraceSink::DrainFn drain, uint64_t id_base,
                        size_t capacity)
{
    gcl_assert(!ran_, "enableTrace after run");
    sink_ = std::make_unique<trace::TraceSink>(capacity);
    sink_->setIdBase(id_base);
    // Keep the drain and base around: a snapshotting run wraps the drain
    // with a history tee, and a resume must re-seed the same id range.
    drainFn_ = std::move(drain);
    idBase_ = id_base;
    sink_->setDrain(drainFn_);
    sink_->setEnabled(true);
    timelineInterval_ = timeline_interval;
}

void
SimContext::setSnapOptions(SnapOptions options)
{
    gcl_assert(!ran_, "setSnapOptions after run");
    snap_ = std::move(options);
}

void
SimContext::writeCheckpoint(const snap::Snapshot &snapshot,
                            const std::string &path)
{
    snapshot.writeFile(path);
    lastWritten_ = &snapshot;
    ++checkpointsWritten_;
    GCL_DEBUG("snap", "checkpoint at kernel boundary ",
              snapshot.kernelIndex, " -> ", path);
}

void
SimContext::onBoundary(sim::Gpu &gpu, uint64_t k)
{
    auto snapshot = std::make_shared<snap::Snapshot>();
    snapshot->configFingerprint = config_.fingerprint();
    snapshot->machineName = config_.machineName;
    snapshot->app = workload_.name;
    snapshot->kernelIndex = k;
    snapshot->cycle = gpu.clock();
    snapshot->meta = snap_.meta;
    gpu.save(*snapshot);

    if (sink_) {
        // The full event stream so far: everything already drained (the
        // tee's history) plus the ring's still-pending tail. A resumed
        // process replays these through a fresh sink, so its trace file
        // is byte-identical to the uninterrupted run's.
        snap::SnapWriter &out = snapshot->section("trace");
        out.u64(idBase_);
        out.u64(sink_->lastId());
        const std::vector<trace::TraceEvent> pending = sink_->snapshot();
        out.u64(traceHistory_.size() + pending.size());
        out.raw(traceHistory_.data(),
                traceHistory_.size() * sizeof(trace::TraceEvent));
        out.raw(pending.data(), pending.size() * sizeof(trace::TraceEvent));
    }

    lastSnapshot_ = snapshot;

    bool wrote = false;
    if (k > 0 && snap_.checkpointEvery != 0 &&
        k % snap_.checkpointEvery == 0 && !snap_.checkpointPath.empty()) {
        writeCheckpoint(*snapshot, snap_.checkpointPath);
        wrote = true;
    }
    if (snap_.stopAfterKernels != 0 && k >= snap_.stopAfterKernels) {
        // Deterministic kill point for resume tests: flush this boundary
        // (whether or not it is a checkpointEvery multiple) and unwind
        // through the normal cancellation path.
        if (!wrote && !snap_.checkpointPath.empty())
            writeCheckpoint(*snapshot, snap_.checkpointPath);
        gcl_sim_error(SimError::Kind::Canceled, "snap", gpu.clock(),
                      "stopped after kernel boundary ", k,
                      " (stop_after_kernels)");
    }
}

void
SimContext::checkSnapshotMeta(const snap::Snapshot &snapshot,
                              const std::string &path) const
{
    // Provenance pairs this run declares must match what the snapshot
    // recorded: a checkpoint of bench dataset version N is useless — and
    // silently wrong, since the config fingerprint cannot see datasets —
    // against version N+1 inputs.
    for (const auto &[key, value] : snap_.meta)
        for (const auto &[snap_key, snap_value] : snapshot.meta)
            if (snap_key == key && snap_value != value)
                gcl_sim_error(SimError::Kind::Snapshot, "snap", 0,
                              "snapshot '", path, "' was taken with ", key,
                              "=", snap_value, ", this run uses ", key, "=",
                              value);
}

bool
SimContext::beginResume(sim::Gpu &gpu)
{
    auto snapshot = std::make_shared<snap::Snapshot>(
        snap::Snapshot::readFile(snap_.resumeFrom));
    if (snapshot->app != workload_.name)
        gcl_sim_error(SimError::Kind::Snapshot, "snap", 0,
                      "snapshot '", snap_.resumeFrom, "' is for app '",
                      snapshot->app, "', not '", workload_.name, "'");
    checkSnapshotMeta(*snapshot, snap_.resumeFrom);

    if (sink_) {
        // A traced resume must reproduce the trace stream from the
        // beginning. If the snapshot cannot seed it, a fresh run can —
        // falling back is slower but still byte-correct.
        if (!snapshot->has("trace")) {
            gcl_warn("snapshot '", snap_.resumeFrom,
                     "' has no trace stream but tracing is on; "
                     "running fresh instead of resuming");
            return false;
        }
        try {
            snap::SnapReader in = snapshot->reader("trace");
            const uint64_t id_base = in.u64();
            const uint64_t last_id = in.u64();
            if (id_base != idBase_) {
                gcl_warn("snapshot '", snap_.resumeFrom,
                         "' was traced with id base ", id_base,
                         ", this run uses ", idBase_,
                         "; running fresh instead of resuming");
                return false;
            }
            const uint64_t count = in.u64();
            const auto *events = reinterpret_cast<const trace::TraceEvent *>(
                in.rawRead(count * sizeof(trace::TraceEvent)));
            // Replay through emit(): the tee rebuilds the history and the
            // drain forwards every event to this run's writer in order.
            for (uint64_t i = 0; i < count; ++i)
                sink_->emit(static_cast<trace::EventKind>(events[i].kind),
                            events[i].cycle, events[i].id, events[i].addr,
                            events[i].pc, events[i].unit, events[i].flags);
            sink_->setIdBase(last_id);
        } catch (const snap::SnapIoError &error) {
            gcl_sim_error(SimError::Kind::Snapshot, "snap", 0,
                          "malformed snapshot trace section: ",
                          error.what());
        }
    }

    gpu.beginResume(snapshot);
    lastSnapshot_ = std::move(snapshot);
    resumed_ = true;
    GCL_DEBUG("snap", "resuming '", workload_.name,
              "' from kernel boundary ", lastSnapshot_->kernelIndex,
              " (", snap_.resumeFrom, ")");
    return true;
}

bool
SimContext::tryFfResume(sim::Gpu &gpu)
{
    std::shared_ptr<snap::Snapshot> snapshot;
    try {
        snapshot = std::make_shared<snap::Snapshot>(
            snap::Snapshot::readFile(snap_.ffPrefixPath));
    } catch (const SimError &) {
        return false;    // missing or unreadable: run fresh
    } catch (const snap::SnapIoError &) {
        return false;
    }
    // The prefix cache is best-effort: anything that does not line up
    // means "run fresh", never "fail the run".
    if (!snapshot->has("ffstate") || snapshot->app != workload_.name ||
        snapshot->configFingerprint != config_.functionalFingerprint()) {
        gcl_warn("functional prefix '", snap_.ffPrefixPath,
                 "' does not match this run; running fresh");
        return false;
    }
    for (const auto &[key, value] : snap_.meta)
        for (const auto &[snap_key, snap_value] : snapshot->meta)
            if (snap_key == key && snap_value != value) {
                gcl_warn("functional prefix '", snap_.ffPrefixPath,
                         "' was taken with ", key, "=", snap_value,
                         ", this run uses ", key, "=", value,
                         "; running fresh");
                return false;
            }
    gpu.beginResume(snapshot);
    ffResumed_ = true;
    GCL_DEBUG("snap", "warm-starting '", workload_.name,
              "' from functional prefix at launch ", snapshot->kernelIndex,
              " (", snap_.ffPrefixPath, ")");
    return true;
}

void
SimContext::writeFfPrefix(sim::Gpu &gpu)
{
    snap::Snapshot snapshot;
    snapshot.configFingerprint = config_.functionalFingerprint();
    snapshot.machineName = config_.machineName;
    snapshot.app = workload_.name;
    snapshot.kernelIndex = gpu.kernelsDone();
    snapshot.cycle = gpu.clock();
    snapshot.meta = snap_.meta;
    gpu.saveFunctional(snapshot);
    // A failed write must not take the run down — the prefix cache is an
    // accelerator, not an output.
    try {
        snapshot.writeFile(snap_.ffPrefixPath);
        ffPrefixWritten_ = true;
        GCL_DEBUG("snap", "functional prefix at launch ",
                  snapshot.kernelIndex, " -> ", snap_.ffPrefixPath);
    } catch (const SimError &error) {
        gcl_warn("functional prefix write to '", snap_.ffPrefixPath,
                 "' failed: ", error.message());
    }
}

void
SimContext::snapshotOnFailure(const SimError &error)
{
    const bool cancelled = error.kind() == SimError::Kind::Canceled;
    const bool hung =
        error.kind() == SimError::Kind::Hang && snap_.hangSnapshot;
    if ((!cancelled && !hung) || !lastSnapshot_ ||
        snap_.checkpointPath.empty())
        return;
    const std::string path =
        hung ? snap_.checkpointPath + ".hang" : snap_.checkpointPath;
    if (cancelled && lastWritten_ == lastSnapshot_.get())
        return;  // stop_after_kernels already flushed this boundary
    // Double-fault guard: a failing snapshot write must not displace the
    // primary failure record — both outcomes land in the detail text.
    std::string &detail = failure_.detail;
    const auto start_line = [&detail, hung] {
        if (!detail.empty())
            detail += '\n';
        detail += hung ? "hang snapshot" : "checkpoint";
    };
    try {
        lastSnapshot_->writeFile(path);
        ++checkpointsWritten_;
        start_line();
        detail += " (kernel boundary ";
        detail += std::to_string(lastSnapshot_->kernelIndex);
        detail += ", cycle ";
        detail += std::to_string(lastSnapshot_->cycle);
        detail += ") written to ";
        detail += path;
    } catch (const SimError &write_error) {
        start_line();
        detail += " write to ";
        detail += path;
        detail += " failed: ";
        detail += write_error.message();
    }
}

void
SimContext::run()
{
    gcl_assert(!ran_, "SimContext::run called twice");
    ran_ = true;

    // Every log line this run emits — from any layer of the simulator —
    // carries the application's name, so interleaved sweep output stays
    // attributable.
    LogTagScope tag(workload_.name);

    const bool snap_on = snap_.active();
    try {
        sim::Gpu gpu(config_);
        if (sink_)
            gpu.attachTrace(sink_.get(), timelineInterval_);
        if (snap_on) {
            // The tee preserves the normal drain while keeping the full
            // event history a boundary capture needs. Only snap runs pay
            // for it — tracing without checkpointing is untouched.
            if (sink_)
                sink_->setDrain([this](const trace::TraceEvent *events,
                                       size_t count) {
                    traceHistory_.insert(traceHistory_.end(), events,
                                         events + count);
                    if (drainFn_)
                        drainFn_(events, count);
                });
            gpu.enableHostLog();
            gpu.setBoundaryHook(
                [this, &gpu](uint64_t k) { onBoundary(gpu, k); });
            if (!snap_.resumeFrom.empty())
                beginResume(gpu);
        }
        // Warm-start prefix for sampled runs. A regular resume wins (it
        // restores strictly more state); otherwise read the shared prefix
        // when it exists, or arm the capture hook to create it.
        if (!snap_.ffPrefixPath.empty() && !config_.sample.empty() &&
            !resumed_) {
            gpu.enableHostLog();
            if (!tryFfResume(gpu))
                gpu.setFfPrefixHook([this, &gpu] { writeFfPrefix(gpu); });
        }
        verified_ = workload_.run(gpu);
        gpu.finalizeStats();
        stats_ = gpu.stats().set();
        // Wall-clock diagnostics, captured while the device still exists.
        // Deliberately NOT part of stats_: the artifact byte-identity
        // contract (skip on == skip off) forbids them there.
        skippedCycles_ = gpu.skippedCycles();
        skipEvents_ = gpu.skipEvents();
        dormantCycles_ = gpu.dormantCycles();
        if (sink_)
            gpu.attachTrace(nullptr);
    } catch (const SimError &error) {
        // The device model is gone, but the failure is confined to this
        // run: record it and let the caller (and sibling runs) carry on.
        failure_ = SimFailure::fromError(error);
        verified_ = false;
        stats_ = StatsSet{};
        gcl_warn("workload '", workload_.name, "' failed: ", error.what());
        if (snap_on)
            snapshotOnFailure(error);
    }
    // Flush even on failure — the trace of the final window is exactly
    // what a hang post-mortem needs.
    if (sink_)
        sink_->flush();
    if (!failure_.failed && !verified_)
        gcl_warn("workload '", workload_.name,
                 "' failed its reference check");
}

} // namespace gcl::workloads
