/**
 * @file
 * Deterministic fault injection for the simulator (gcl::guard).
 *
 * A FaultPlan describes *when* and *what* to break inside one simulated
 * run, as cycle windows over the device's global clock. Plans are pure
 * data parsed from a spec string (flag / env / config driven), so a fault
 * scenario is reproducible bit-for-bit: the same spec against the same
 * workload produces the same stats, the same failure record, the same
 * trace.
 *
 * Grammar (semicolon-separated items):
 *
 *   spec    := item (';' item)*
 *   item    := 'seed=' N            seed for auto-generated windows
 *            | 'app=' NAME          restrict the plan to one application
 *            | 'auto=' N            derive N windows from the seed
 *            | kind '@' START ['+' LEN]
 *   kind    := 'mshr'               L1 accesses fail with FailMshr
 *            | 'icnt'               SM injection ports refuse (backpressure
 *                                   storm: FailIcnt at every L1)
 *            | 'dram'               DRAM channels refuse new requests
 *            | 'dropfill'           responses arriving at SMs are dropped
 *                                   (leaks the MSHR entry -> livelock)
 *            | 'stop'               premature kernel stop (raises
 *                                   SimError{FaultInjected} at START)
 *
 * A window is the half-open cycle range [START, START+LEN); LEN defaults
 * to 1. Examples:
 *
 *   "mshr@5000+2000"                MSHR exhaustion for 2k cycles
 *   "app=bpr;stop@20000"            kill only bpr's run at cycle 20000
 *   "seed=42;auto=3"                3 pseudo-random windows from seed 42
 *
 * The injection points live on the simulator's existing resource-refusal
 * edges (reservation fails, queue-full backpressure), so injected faults
 * exercise exactly the degraded paths the paper's Figs 3/5/7 quantify —
 * plus, via dropfill, the pathological case those mechanisms assume never
 * happens.
 */

#ifndef GCL_GUARD_FAULT_HH
#define GCL_GUARD_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gcl::guard
{

/** What a fault window breaks. */
enum class FaultKind : uint8_t
{
    MshrExhaust,  //!< L1 reports FailMshr regardless of real occupancy
    IcntBlock,    //!< SM->icnt injection refused (backpressure storm)
    DramRefuse,   //!< DRAM channel refuses to accept (refusal window)
    DropFill,     //!< responses arriving at the SM are silently dropped
    KernelStop,   //!< raise SimError{FaultInjected} at the window start
    NumKinds,
};

const char *toString(FaultKind kind);

/** One fault window: @p kind is active in [start, start + length). */
struct FaultWindow
{
    FaultKind kind = FaultKind::MshrExhaust;
    uint64_t start = 0;
    uint64_t length = 1;

    bool
    contains(uint64_t cycle) const
    {
        return cycle >= start && cycle - start < length;
    }
};

/** Immutable, seed-deterministic fault schedule. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse a spec string (see the grammar above). Auto windows are
     * derived from the seed with the repository's pinned Rng, so the
     * whole plan is a pure function of the spec. Auto windows draw only
     * survivable kinds (mshr/icnt/dram); dropfill and stop kill a run
     * and must be asked for explicitly.
     * @throws SimError{Kind::Config} on any syntax or vocabulary error.
     */
    static FaultPlan parse(const std::string &spec);

    bool empty() const { return windows_.empty(); }
    uint64_t seed() const { return seed_; }
    const std::vector<FaultWindow> &windows() const { return windows_; }

    /** Application filter; empty = applies to every run. */
    const std::string &app() const { return app_; }

    /** True when this plan targets runs of application @p name. */
    bool
    appliesTo(const std::string &name) const
    {
        return app_.empty() || app_ == name;
    }

    /** Canonical spec string (stable across parse round-trips). */
    std::string describe() const;

  private:
    uint64_t seed_ = 0;
    std::string app_;
    std::vector<FaultWindow> windows_;
};

/**
 * Per-run fault oracle consulted from the device's hot paths. Owns the
 * plan plus per-kind injection counters. Whether a fault fires is a pure
 * function of the cycle.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

    bool mshrExhausted(uint64_t now) { return hit(FaultKind::MshrExhaust, now); }
    bool icntBlocked(uint64_t now) { return hit(FaultKind::IcntBlock, now); }
    bool dramRefused(uint64_t now) { return hit(FaultKind::DramRefuse, now); }
    bool dropFill(uint64_t now) { return hit(FaultKind::DropFill, now); }
    bool stopKernel(uint64_t now) { return hit(FaultKind::KernelStop, now); }

    /** Times the given fault actually fired (stats export). */
    uint64_t
    injected(FaultKind kind) const
    {
        return counts_[static_cast<size_t>(kind)];
    }

  private:
    bool
    hit(FaultKind kind, uint64_t now)
    {
        for (const auto &w : plan_.windows()) {
            if (w.kind == kind && w.contains(now)) {
                ++counts_[static_cast<size_t>(kind)];
                return true;
            }
        }
        return false;
    }

    FaultPlan plan_;
    uint64_t counts_[static_cast<size_t>(FaultKind::NumKinds)] = {};
};

} // namespace gcl::guard

#endif // GCL_GUARD_FAULT_HH
