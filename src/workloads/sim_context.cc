#include "sim_context.hh"

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
    sink_->setDrain(std::move(drain));
    sink_->setEnabled(true);
    timelineInterval_ = timeline_interval;
}

void
SimContext::setSnapOptions(SnapOptions options)
{
    gcl_assert(!ran_, "setSnapOptions after run");
    snap_ = std::move(options);
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
    // A prefix that does not line up with this run means "run fresh". One
    // that does, but does not decode, fails the run (SnapOptions).
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
SimContext::run()
{
    gcl_assert(!ran_, "SimContext::run called twice");
    ran_ = true;

    // Every log line this run emits — from any layer of the simulator —
    // carries the application's name, so interleaved sweep output stays
    // attributable.
    LogTagScope tag(workload_.name);

    try {
        sim::Gpu gpu(config_);
        if (sink_)
            gpu.attachTrace(sink_.get(), timelineInterval_);
        // Warm-start prefix for sampled runs: read the shared prefix when
        // it exists, or arm the capture hook to create it.
        if (!snap_.ffPrefixPath.empty() && !config_.sample.empty()) {
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
