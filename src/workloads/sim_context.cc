#include "sim_context.hh"

#include "guard/fault.hh"
#include "sim/gpu.hh"
#include "util/logging.hh"

namespace gcl::workloads
{

std::shared_ptr<const sim::FunctionalPrefix>
PrefixStore::find(const std::string &app, uint64_t fingerprint) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = prefixes_.find({app, fingerprint});
    return it == prefixes_.end() ? nullptr : it->second;
}

void
PrefixStore::insert(const std::string &app, uint64_t fingerprint,
                    sim::FunctionalPrefix prefix)
{
    auto value =
        std::make_shared<const sim::FunctionalPrefix>(std::move(prefix));
    const std::lock_guard<std::mutex> lock(mutex_);
    prefixes_.try_emplace({app, fingerprint}, std::move(value));
}

size_t
PrefixStore::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return prefixes_.size();
}

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
    sink_ = std::make_unique<trace::TraceSink>(std::move(drain), capacity);
    sink_->setIdBase(id_base);
    timelineInterval_ = timeline_interval;
}

void
SimContext::setPrefixStore(PrefixStore &store)
{
    gcl_assert(!ran_, "setPrefixStore after run");
    prefixStore_ = &store;
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
        // Warm-start prefix for sampled runs: start from the stored
        // prefix of this key, or arm the capture hook to store it.
        if (prefixStore_ && !config_.sample.empty()) {
            const uint64_t key = config_.functionalFingerprint();
            if (auto prefix = prefixStore_->find(workload_.name, key)) {
                ffResumed_ = true;
                gpu.beginResume(std::move(prefix));
            } else {
                gpu.setFfPrefixHook([this, key](sim::FunctionalPrefix p) {
                    prefixStore_->insert(workload_.name, key, std::move(p));
                    ffPrefixCaptured_ = true;
                });
            }
        }
        verified_ = workload_.run(gpu);
        gpu.finalizeStats();
        stats_ = gpu.stats().set();
        // A wall-clock diagnostic, captured while the device still
        // exists. Deliberately NOT part of stats_: the artifact
        // byte-identity contract (skip on == skip off) forbids it there.
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
