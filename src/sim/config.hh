/**
 * @file
 * Simulator configuration, defaulted to the paper's Table II (GPGPU-Sim
 * v3.2.2, NVIDIA Tesla C2050-class device). The defaults are one point in
 * the machine zoo: any field here can instead come from a
 * gpgpusim.config-style machine file resolved by sim::MachineRegistry
 * (--machine; see machine.hh), with --sim-config overrides
 * layered on top.
 *
 * The config also carries the knobs for the Section X ablations: CTA
 * scheduling policy (X.B), semi-global L2 clustering (X.C) and
 * non-deterministic warp splitting (X.A).
 */

#ifndef GCL_SIM_CONFIG_HH
#define GCL_SIM_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

namespace gcl::ptx
{
// Opaque enum declarations so the opcode-class mapping can be declared
// here without dragging the whole IR into every simulator header.
enum class Opcode : uint8_t;
enum class DataType : uint8_t;
} // namespace gcl::ptx

namespace gcl::sim
{

/** Cycle count type for the single simulated clock domain. */
using Cycle = uint64_t;

/**
 * Functional-unit opcode classes (the rows of the machine description's
 * latency/initiation table, following GPGPU-Sim's
 * ptx_opcode_latency_{int,fp,dp} split). Every non-memory instruction maps
 * to exactly one class via opClassFor(); the machine file assigns each
 * class a writeback latency and an issue-stage initiation interval, which
 * is how per-machine calibration (arXiv 1905.08778) enters the model.
 */
enum class OpClass : uint8_t
{
    IntAlu,   //!< add/sub/logic/shift/setp/selp/cvt/mov on integer types
    IntMul,   //!< integer mul/mulhi/mad
    IntDiv,   //!< integer div/rem
    FpAlu,    //!< floating add/sub/min/max/...
    FpMul,    //!< floating mul/mad
    FpDiv,    //!< floating div
    Sfu,      //!< rcp/sqrt/rsqrt/sin/cos/ex2/lg2 (the SFU pipeline)
    NumClasses,
};

constexpr unsigned kNumOpClasses =
    static_cast<unsigned>(OpClass::NumClasses);

/** Machine-file key suffix for a class ("int_alu", "fp_div", "sfu", ...). */
const char *toString(OpClass cls);

/** The functional-unit class executing @p op on @p type. */
OpClass opClassFor(ptx::Opcode op, ptx::DataType type);

/** One opcode class's execution timing. */
struct FuTiming
{
    unsigned latency;      //!< issue-to-writeback cycles
    unsigned initiation;   //!< cycles the first pipeline stage stays busy

    bool
    operator==(const FuTiming &other) const
    {
        return latency == other.latency && initiation == other.initiation;
    }
};

/** Parameters of one cache level. */
struct CacheConfig
{
    uint32_t sizeBytes;
    uint32_t lineBytes = 128;
    uint32_t assoc;
    uint32_t mshrEntries;
    uint32_t mshrMaxMerge = 8;   //!< max requests merged into one entry

    uint32_t numSets() const { return sizeBytes / (lineBytes * assoc); }
};

/** CTA-to-SM assignment policy (Section X.B). */
enum class CtaSchedPolicy : uint8_t
{
    RoundRobin,   //!< baseline: CTA i goes to the next SM with a free slot
    Clustered,    //!< neighboring CTAs are packed onto the same SM
};

/** Warp selection policy inside a scheduler. */
enum class WarpSchedPolicy : uint8_t
{
    LooseRoundRobin,
    GreedyThenOldest,
};

/** Full device configuration. */
struct GpuConfig
{
    /**
     * Machine identity: which description produced this config. The
     * compiled defaults ARE the c2050 machine (configs/c2050.config is
     * byte-equivalent), so a default-constructed config and one loaded
     * from that file share a name, a fingerprint, and therefore cache
     * entries. Mixed into fingerprint() and recorded in every stats/trace
     * artifact so a run always says which machine produced it.
     */
    std::string machineName = "c2050";

    // --- Core organization (Table II) ---
    unsigned numSms = 15;
    unsigned warpSize = 32;
    unsigned maxThreadsPerSm = 1536;
    unsigned maxCtasPerSm = 8;
    uint32_t sharedMemPerSm = 48 * 1024;
    unsigned numSchedulers = 2;
    WarpSchedPolicy warpSched = WarpSchedPolicy::LooseRoundRobin;

    // --- Execution latencies ---
    /**
     * Per-opcode-class {latency, initiation} table (indexed by OpClass).
     * Replaces the former flat spLatency/sfuLatency pair: the C2050
     * defaults keep every SP-pipeline class at {6, 1} and the SFU class
     * at {16, 4} — numerically identical to the old fields — while a
     * machine file can differentiate int/fp/mul/div the way GPGPU-Sim's
     * ptx_opcode_latency_* options do.
     */
    std::array<FuTiming, kNumOpClasses> opTiming = {{
        {6, 1},   // IntAlu
        {6, 1},   // IntMul
        {6, 1},   // IntDiv
        {6, 1},   // FpAlu
        {6, 1},   // FpMul
        {6, 1},   // FpDiv
        {16, 4},  // Sfu
    }};
    unsigned sharedMemLatency = 24;
    unsigned l1HitLatency = 18;
    unsigned ldstQueueDepth = 8;  //!< warp memory ops queued per SM

    // --- L1 data cache (per SM; Table II: 16KB, 128B line, 4-way, 64 MSHR)
    CacheConfig l1 = {16 * 1024, 128, 4, 64, 8};

    // --- Memory partitions: Table II's unified L2 is numPartitions
    // slices of l2.sizeBytes each (6 x 128KB = 768KB on the C2050) ---
    unsigned numPartitions = 6;
    CacheConfig l2 = {128 * 1024, 128, 8, 32, 8};
    unsigned ropLatency = 120;    //!< raster-op/L2 pipeline latency (Table II)

    // --- Interconnect ---
    unsigned icntLatency = 8;         //!< one-way flit latency
    unsigned icntInjectQueueDepth = 8; //!< per-SM request injection buffer
    unsigned icntRespQueueDepth = 8;   //!< per-partition response buffer
    /**
     * Credit limit on each partition's input path (in-flight flits plus
     * the ROP backlog). Finite buffers here are what propagate memory-side
     * congestion back to the L1 as "reservation fail by interconnection".
     */
    unsigned partQueueDepth = 16;

    // --- DRAM (GDDR5-like, Table II: latency 100) ---
    unsigned dramLatency = 100;
    unsigned dramBurstCycles = 4;     //!< channel occupancy per 128B burst
    unsigned dramQueueDepth = 16;
    /**
     * Explicit DRAM timing: an optional open-row model per channel.
     * dramRowBytes = 0 (the C2050 default) disables it — every access
     * costs the flat dramLatency, exactly the pre-refactor arithmetic.
     * When non-zero, each channel keeps dramBanks open-row registers; an
     * access whose row differs from its bank's open row pays
     * dramActLatency extra (precharge + activate), which is how the
     * HBM-class machine (arXiv 1810.07269) expresses row locality.
     */
    unsigned dramBanks = 1;
    unsigned dramRowBytes = 0;
    unsigned dramActLatency = 0;

    // --- Section X ablation knobs ---
    CtaSchedPolicy ctaSched = CtaSchedPolicy::RoundRobin;
    unsigned ctaClusterSize = 2;     //!< CTAs per SM batch in Clustered mode
    /**
     * Semi-global L2 (X.C): SMs are grouped into clusters of this many SMs
     * and each cluster only uses its own slice of the L2 partitions.
     * 0 disables clustering (baseline: all SMs share all partitions).
     */
    unsigned smsPerL2Cluster = 0;
    /**
     * Warp splitting for non-deterministic loads (X.A): when non-zero, a
     * non-deterministic load issues at most this many memory requests per
     * sub-warp, and sub-warps of different warps interleave in the LD/ST
     * queue instead of monopolizing it.
     */
    unsigned nondetSplitRequests = 0;

    /**
     * Per-unit sleep: a drained or frozen SM or memory partition stops
     * ticking until its next event or an outside stimulus, crediting the
     * slept cycles in bulk to the counters the per-cycle loop would have
     * bumped. The device clock still steps one cycle at a time. A pure
     * host-side optimization — every stats/trace/crit artifact is
     * bit-identical with the knob on or off (tests/test_skip.cc) — so it
     * is not part of the config fingerprint. Off, every unit ticks every
     * cycle: the eager reference.
     */
    bool cycleSkipping = true;

    /**
     * Enable the gcl::crit criticality profiler: per-PC issue-slot stall
     * attribution and per-stage memory-latency histograms (see
     * src/crit/crit.hh). Unlike cycle_skipping this knob changes the
     * *content* of the finalized stats (the crit.* key schema appears),
     * so an enabled run must never share a cache entry with a disabled
     * one — it IS part of the config fingerprint. Simulated timing is
     * unaffected either way (tests/test_crit.cc proves the non-crit
     * stats stay byte-identical).
     */
    bool crit = false;

    // --- Run control / robustness (gcl::guard) ---
    /**
     * Hard cycle budget for the whole run (the device's global clock,
     * accumulated across launches). Exceeding it raises
     * SimError{Kind::Timeout}, which the harness reports as a structured
     * per-run `timeout` failure record. Overridable per run with
     * --max-cycles.
     */
    Cycle maxCycles = 200'000'000;
    /**
     * Forward-progress watchdog check period in cycles (0 disables). Every
     * interval the watchdog compares retired-instruction and
     * completed-request counters; `watchdogBudget` cycles without any
     * delta raise SimError{Kind::Hang} with an attached HangReport.
     */
    Cycle watchdogInterval = 8192;
    Cycle watchdogBudget = 2'000'000;
    /**
     * guard::FaultPlan spec for deterministic fault injection (see
     * src/guard/fault.hh for the grammar); empty disables. Part of the
     * config fingerprint: a faulted run never shares cache entries with a
     * clean one.
     */
    std::string faultPlan;

    // --- Sampled simulation (src/sim/sample.hh) ---
    /**
     * `--sample` spec selecting which launches/CTAs run under the full
     * timing model; everything else is fast-forwarded functionally (see
     * SamplePlan for the grammar; empty disables). Part of the config
     * fingerprint when non-empty: sampled stats are partial by
     * construction and must never share a cache entry with a full run.
     * Mixed only when active, so every pre-existing fingerprint stays
     * valid.
     */
    std::string sample;

    /** Max concurrent CTAs on one SM for a CTA of the given footprint. */
    unsigned ctasPerSm(unsigned threads_per_cta,
                       uint32_t shared_bytes_per_cta) const;

    /**
     * Analytic unloaded round-trip latency of an L1 miss that hits in the
     * L2: the two interconnect traversals plus the ROP/L2 pipeline. The
     * L1 tag lookup itself is same-cycle in this model (the hit latency
     * only applies to data returned from the L1).
     */
    unsigned
    unloadedL2Latency() const
    {
        return 2 * icntLatency + ropLatency;
    }

    /** Analytic unloaded round-trip latency of an L1 miss going to DRAM. */
    unsigned
    unloadedDramLatency() const
    {
        return unloadedL2Latency() + dramLatency;
    }

    /** Multi-line human-readable dump (the Table II view). */
    std::string describe() const;

    /** Stable hash over every field; keys the benchmark run cache. */
    uint64_t fingerprint() const;

    /**
     * Hash over the *functional* identity only: the fields that determine
     * architectural state (registers, memory, SIMT stacks) independent of
     * any timing model — warp width, the fast-forward's wave size inputs
     * (num_sms and the per-SM thread, CTA and shared-memory limits, which
     * decide which CTAs it interleaves) and the sampling spec (which
     * decides what it executes). Machine timing keys are excluded on
     * purpose: a fast-forwarded functional prefix keyed by this hash is
     * shared by every machine of one SM count and residency, which is
     * what lets the runs of one process share one prefix
     * (workloads::PrefixStore; DESIGN.md, "Functional prefix").
     */
    uint64_t functionalFingerprint() const;

    /**
     * Apply one `key=value` override (keys are the snake_case field
     * names: "num_sms", "l1_mshr", "watchdog_budget", ...). An unknown
     * key or an unparsable value raises SimError{Kind::Config} whose
     * message lists the full valid-key vocabulary — a typo must never
     * silently run the wrong experiment.
     */
    void applyOverride(const std::string &key, const std::string &value);

    /** Apply a comma-separated list of `key=value` overrides. */
    void applyOverrides(const std::string &spec);

    /** Comma-separated list of every override key (error messages). */
    static std::string knownOverrideKeys();
};

} // namespace gcl::sim

#endif // GCL_SIM_CONFIG_HH
