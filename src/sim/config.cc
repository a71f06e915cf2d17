#include "config.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <vector>

#include "guard/fault.hh"
#include "guard/sim_error.hh"
#include "sample.hh"
#include "ptx/instruction.hh"
#include "util/bitutil.hh"
#include "util/count.hh"
#include "util/logging.hh"

namespace gcl::sim
{

const char *
toString(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "int_alu";
      case OpClass::IntMul: return "int_mul";
      case OpClass::IntDiv: return "int_div";
      case OpClass::FpAlu: return "fp_alu";
      case OpClass::FpMul: return "fp_mul";
      case OpClass::FpDiv: return "fp_div";
      case OpClass::Sfu: return "sfu";
      case OpClass::NumClasses: break;
    }
    return "?";
}

OpClass
opClassFor(ptx::Opcode op, ptx::DataType type)
{
    const bool fp = ptx::isFloat(type);
    switch (op) {
      case ptx::Opcode::Rcp:
      case ptx::Opcode::Sqrt:
      case ptx::Opcode::Rsqrt:
      case ptx::Opcode::Sin:
      case ptx::Opcode::Cos:
      case ptx::Opcode::Ex2:
      case ptx::Opcode::Lg2:
        return OpClass::Sfu;
      case ptx::Opcode::Mul:
      case ptx::Opcode::MulHi:
      case ptx::Opcode::Mad:
        return fp ? OpClass::FpMul : OpClass::IntMul;
      case ptx::Opcode::Div:
      case ptx::Opcode::Rem:
        return fp ? OpClass::FpDiv : OpClass::IntDiv;
      default:
        return fp ? OpClass::FpAlu : OpClass::IntAlu;
    }
}

unsigned
GpuConfig::ctasPerSm(unsigned threads_per_cta,
                     uint32_t shared_bytes_per_cta) const
{
    if (threads_per_cta == 0 || threads_per_cta > maxThreadsPerSm)
        gcl_sim_error(SimError::Kind::Workload, "config", 0, "CTA size ",
                      threads_per_cta, " unsupported (max ",
                      maxThreadsPerSm, " threads/SM)");
    unsigned limit = std::min(maxCtasPerSm,
                              maxThreadsPerSm / threads_per_cta);
    if (shared_bytes_per_cta > 0) {
        if (shared_bytes_per_cta > sharedMemPerSm)
            gcl_sim_error(SimError::Kind::Workload, "config", 0,
                          "CTA shared memory (", shared_bytes_per_cta,
                          "B) exceeds the SM's capacity (", sharedMemPerSm,
                          "B)");
        limit = std::min(limit, sharedMemPerSm / shared_bytes_per_cta);
    }
    return std::max(1u, limit);
}

// ---------------------------------------------------------------------
// key=value overrides
// ---------------------------------------------------------------------

namespace
{

/** One overridable config field: name + value applier. */
struct OverrideKey
{
    std::string name;
    std::function<void(GpuConfig &, const std::string &)> apply;
};

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &expected)
{
    gcl_sim_error(SimError::Kind::Config, "config", 0, "config key '", key,
                  "': '", value, "' is not ", expected);
}

/** The range of the per-PC timing tables (LaunchContext::opLatency). */
constexpr uint64_t kMaxOpCycles = std::numeric_limits<uint16_t>::max();

uint64_t
parseUnsigned(const std::string &key, const std::string &value,
              uint64_t max)
{
    const std::optional<uint64_t> n = tryParseCount(value, max);
    if (!n)
        badValue(key, value,
                 "a non-negative integer up to " + std::to_string(max));
    return *n;
}

template <typename T>
OverrideKey
numericKey(const char *name, T GpuConfig::*field)
{
    return {name, [name, field](GpuConfig &config, const std::string &v) {
                config.*field = static_cast<T>(parseUnsigned(
                    name, v, std::numeric_limits<T>::max()));
            }};
}

template <typename T>
OverrideKey
cacheKey(const char *name, CacheConfig GpuConfig::*cache,
         T CacheConfig::*field)
{
    return {name,
            [name, cache, field](GpuConfig &config, const std::string &v) {
                config.*cache.*field = static_cast<T>(parseUnsigned(
                    name, v, std::numeric_limits<T>::max()));
            }};
}

/**
 * Split @p value on ':' into exactly @p min..@p max numeric fields, each
 * at most @p field_max.
 */
std::vector<uint64_t>
parseColonFields(const std::string &key, const std::string &value,
                 size_t min, size_t max, uint64_t field_max,
                 const char *expected)
{
    std::vector<uint64_t> out;
    std::istringstream items(value);
    std::string item;
    while (std::getline(items, item, ':')) {
        const std::optional<uint64_t> n = tryParseCount(item, field_max);
        if (out.size() == max || !n)
            badValue(key, value, expected);
        out.push_back(*n);
    }
    if (out.size() < min)
        badValue(key, value, expected);
    return out;
}

/**
 * Cache geometry string, gpgpusim.config style:
 * `<nsets>:<bsize>:<assoc>[:<mshr>[:<merge>]]`. Omitted MSHR fields keep
 * the target cache's current values, so a machine file can give just the
 * geometry and inherit the default miss-handling capacity.
 */
OverrideKey
geometryKey(const char *name, CacheConfig GpuConfig::*cache)
{
    return {name, [name, cache](GpuConfig &config, const std::string &v) {
                constexpr uint64_t kMax = std::numeric_limits<uint32_t>::max();
                const auto f = parseColonFields(
                    name, v, 3, 5, kMax,
                    "a <nsets>:<bsize>:<assoc>[:<mshr>[:<merge>]] "
                    "geometry");
                CacheConfig &c = config.*cache;
                const uint64_t nsets = f[0], bsize = f[1], assoc = f[2];
                if (nsets == 0 || bsize == 0 || assoc == 0)
                    badValue(name, v, "a geometry with non-zero fields");
                // Each field fits in 32 bits, so nsets * bsize cannot wrap.
                if (nsets * bsize > kMax / assoc)
                    badValue(name, v,
                             "a geometry of at most 4294967295 bytes");
                c.sizeBytes = static_cast<uint32_t>(nsets * bsize * assoc);
                c.lineBytes = static_cast<uint32_t>(bsize);
                c.assoc = static_cast<uint32_t>(assoc);
                if (f.size() > 3)
                    c.mshrEntries = static_cast<uint32_t>(f[3]);
                if (f.size() > 4)
                    c.mshrMaxMerge = static_cast<uint32_t>(f[4]);
            }};
}

/** Per-opcode-class timing: `<latency>:<initiation>`. */
OverrideKey
opTimingKey(OpClass cls)
{
    return {std::string("op_") + toString(cls),
            [cls](GpuConfig &config, const std::string &v) {
                const std::string key =
                    std::string("op_") + toString(cls);
                const auto f = parseColonFields(
                    key, v, 2, 2, kMaxOpCycles,
                    "a <latency>:<initiation> pair, each at most 65535");
                if (f[0] == 0 || f[1] == 0)
                    badValue(key, v, "a pair of non-zero cycle counts");
                auto &t = config.opTiming[static_cast<size_t>(cls)];
                t.latency = static_cast<unsigned>(f[0]);
                t.initiation = static_cast<unsigned>(f[1]);
            }};
}

std::vector<OverrideKey>
buildOverrideKeys()
{
    std::vector<OverrideKey> keys = {
        // Machine identity
        {"machine_name",
         [](GpuConfig &config, const std::string &v) {
             if (v.empty())
                 badValue("machine_name", v, "a non-empty name");
             config.machineName = v;
         }},
        // Core organization
        numericKey("num_sms", &GpuConfig::numSms),
        numericKey("warp_size", &GpuConfig::warpSize),
        numericKey("max_threads_per_sm", &GpuConfig::maxThreadsPerSm),
        numericKey("max_ctas_per_sm", &GpuConfig::maxCtasPerSm),
        numericKey("shared_mem_per_sm", &GpuConfig::sharedMemPerSm),
        numericKey("num_schedulers", &GpuConfig::numSchedulers),
        {"warp_sched",
         [](GpuConfig &config, const std::string &v) {
             if (v == "lrr")
                 config.warpSched = WarpSchedPolicy::LooseRoundRobin;
             else if (v == "gto")
                 config.warpSched = WarpSchedPolicy::GreedyThenOldest;
             else
                 badValue("warp_sched", v, "one of lrr, gto");
         }},
        // Latencies (the opcode-class table has its op_* keys)
        numericKey("shared_mem_latency", &GpuConfig::sharedMemLatency),
        numericKey("l1_hit_latency", &GpuConfig::l1HitLatency),
        numericKey("ldst_queue_depth", &GpuConfig::ldstQueueDepth),
        // L1
        geometryKey("l1_cache", &GpuConfig::l1),
        cacheKey("l1_size", &GpuConfig::l1, &CacheConfig::sizeBytes),
        cacheKey("l1_line", &GpuConfig::l1, &CacheConfig::lineBytes),
        cacheKey("l1_assoc", &GpuConfig::l1, &CacheConfig::assoc),
        cacheKey("l1_mshr", &GpuConfig::l1, &CacheConfig::mshrEntries),
        cacheKey("l1_mshr_merge", &GpuConfig::l1,
                 &CacheConfig::mshrMaxMerge),
        // Partitions / L2
        numericKey("num_partitions", &GpuConfig::numPartitions),
        geometryKey("l2_cache", &GpuConfig::l2),
        cacheKey("l2_size", &GpuConfig::l2, &CacheConfig::sizeBytes),
        cacheKey("l2_line", &GpuConfig::l2, &CacheConfig::lineBytes),
        cacheKey("l2_assoc", &GpuConfig::l2, &CacheConfig::assoc),
        cacheKey("l2_mshr", &GpuConfig::l2, &CacheConfig::mshrEntries),
        cacheKey("l2_mshr_merge", &GpuConfig::l2,
                 &CacheConfig::mshrMaxMerge),
        numericKey("rop_latency", &GpuConfig::ropLatency),
        // Interconnect
        numericKey("icnt_latency", &GpuConfig::icntLatency),
        numericKey("icnt_inject_queue", &GpuConfig::icntInjectQueueDepth),
        numericKey("icnt_resp_queue", &GpuConfig::icntRespQueueDepth),
        numericKey("part_queue", &GpuConfig::partQueueDepth),
        // DRAM
        numericKey("dram_latency", &GpuConfig::dramLatency),
        numericKey("dram_burst", &GpuConfig::dramBurstCycles),
        numericKey("dram_queue", &GpuConfig::dramQueueDepth),
        numericKey("dram_banks", &GpuConfig::dramBanks),
        numericKey("dram_row_bytes", &GpuConfig::dramRowBytes),
        numericKey("dram_act_latency", &GpuConfig::dramActLatency),
        // Ablations
        {"cta_sched",
         [](GpuConfig &config, const std::string &v) {
             if (v == "rr")
                 config.ctaSched = CtaSchedPolicy::RoundRobin;
             else if (v == "clustered")
                 config.ctaSched = CtaSchedPolicy::Clustered;
             else
                 badValue("cta_sched", v, "one of rr, clustered");
         }},
        numericKey("cta_cluster_size", &GpuConfig::ctaClusterSize),
        numericKey("sms_per_l2_cluster", &GpuConfig::smsPerL2Cluster),
        numericKey("nondet_split_requests",
                   &GpuConfig::nondetSplitRequests),
        {"cycle_skipping",
         [](GpuConfig &config, const std::string &v) {
             if (v == "0")
                 config.cycleSkipping = false;
             else if (v == "1")
                 config.cycleSkipping = true;
             else
                 badValue("cycle_skipping", v, "one of 0, 1");
         }},
        {"crit",
         [](GpuConfig &config, const std::string &v) {
             if (v == "0")
                 config.crit = false;
             else if (v == "1")
                 config.crit = true;
             else
                 badValue("crit", v, "one of 0, 1");
         }},
        // Run control / robustness
        numericKey("max_cycles", &GpuConfig::maxCycles),
        numericKey("watchdog_interval", &GpuConfig::watchdogInterval),
        numericKey("watchdog_budget", &GpuConfig::watchdogBudget),
        {"fault_plan",
         [](GpuConfig &config, const std::string &v) {
             // Validate eagerly so a bad plan is a config error at parse
             // time, not a per-run failure mid-sweep.
             guard::FaultPlan::parse(v);
             config.faultPlan = v;
         }},
        // Sampled simulation. The spec grammar is colon-separated, so it
        // can ride inside a comma-separated --sim-config string.
        {"sample",
         [](GpuConfig &config, const std::string &v) {
             SamplePlan::parse(v); // eager validation, like fault_plan
             config.sample = v;
         }},
    };
    // One `op_<class> <latency>:<initiation>` key per opcode class, the
    // machine-file form of GPGPU-Sim's ptx_opcode_latency_* tables.
    for (unsigned c = 0; c < kNumOpClasses; ++c)
        keys.push_back(opTimingKey(static_cast<OpClass>(c)));
    return keys;
}

const std::vector<OverrideKey> &
overrideKeys()
{
    static const std::vector<OverrideKey> keys = buildOverrideKeys();
    return keys;
}

} // namespace

std::string
GpuConfig::knownOverrideKeys()
{
    std::string out;
    for (const auto &key : overrideKeys()) {
        if (!out.empty())
            out += ", ";
        out += key.name;
    }
    return out;
}

void
GpuConfig::applyOverride(const std::string &key, const std::string &value)
{
    for (const auto &entry : overrideKeys()) {
        if (key == entry.name) {
            entry.apply(*this, value);
            return;
        }
    }
    // Mirrors the --apps typo guard: an unknown key must not silently run
    // a different experiment than the user asked for.
    gcl_sim_error(SimError::Kind::Config, "config", 0,
                  "unknown config key '", key, "' (known: ",
                  knownOverrideKeys(), ")");
}

void
GpuConfig::applyOverrides(const std::string &spec)
{
    std::istringstream items(spec);
    std::string item;
    while (std::getline(items, item, ',')) {
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            gcl_sim_error(SimError::Kind::Config, "config", 0,
                          "config override '", item,
                          "' is not key=value (known keys: ",
                          knownOverrideKeys(), ")");
        applyOverride(item.substr(0, eq), item.substr(eq + 1));
    }
}

std::string
GpuConfig::describe() const
{
    std::ostringstream oss;
    oss << "Machine    " << machineName << "\n";
    oss << "Core       " << numSms << " SMs, " << warpSize
        << " SIMT width, " << maxThreadsPerSm << " threads/SM, "
        << maxCtasPerSm << " CTAs/SM, " << numSchedulers
        << " schedulers ("
        << (warpSched == WarpSchedPolicy::LooseRoundRobin ? "LRR" : "GTO")
        << ")\n";
    oss << "Exec       ";
    for (unsigned c = 0; c < kNumOpClasses; ++c) {
        const auto &t = opTiming[c];
        oss << (c ? ", " : "") << toString(static_cast<OpClass>(c)) << " "
            << t.latency << "/" << t.initiation;
    }
    oss << " (latency/initiation)\n";
    oss << "SharedMem  " << sharedMemPerSm / 1024 << "KB/SM, latency "
        << sharedMemLatency << "\n";
    oss << "L1D cache  " << l1.sizeBytes / 1024 << "KB, " << l1.lineBytes
        << "B line, " << l1.assoc << "-way, " << l1.mshrEntries
        << " MSHR entries, hit latency " << l1HitLatency << "\n";
    oss << "L2D cache  unified "
        << numPartitions * l2.sizeBytes / 1024 << "KB in " << numPartitions
        << " partitions, " << l2.lineBytes << "B line, " << l2.assoc
        << "-way, " << l2.mshrEntries << " MSHR entries/partition\n";
    oss << "ROP        latency " << ropLatency << "\n";
    oss << "Icnt       latency " << icntLatency << ", inject queue "
        << icntInjectQueueDepth << ", response queue "
        << icntRespQueueDepth << ", partition credit "
        << partQueueDepth << "\n";
    oss << "DRAM       latency " << dramLatency << ", burst "
        << dramBurstCycles << " cycles, queue " << dramQueueDepth;
    if (dramRowBytes)
        oss << ", " << dramBanks << " banks x " << dramRowBytes
            << "B rows, activate +" << dramActLatency;
    oss << "\n";
    oss << "CTA sched  "
        << (ctaSched == CtaSchedPolicy::RoundRobin ? "round-robin"
                                                   : "clustered")
        << (ctaSched == CtaSchedPolicy::Clustered
                ? " (batch " + std::to_string(ctaClusterSize) + ")"
                : std::string())
        << "\n";
    if (smsPerL2Cluster)
        oss << "Semi-L2    " << smsPerL2Cluster << " SMs per L2 cluster\n";
    if (nondetSplitRequests)
        oss << "WarpSplit  " << nondetSplitRequests
            << " requests per non-deterministic sub-warp\n";
    if (!cycleSkipping)
        oss << "CycleSkip  off (every unit ticks every cycle)\n";
    if (crit)
        oss << "CritProf   issue-slot attribution + latency breakdown\n";
    if (watchdogInterval)
        oss << "Watchdog   check every " << watchdogInterval
            << " cycles, stall budget " << watchdogBudget << "\n";
    if (!faultPlan.empty())
        oss << "FaultPlan  " << faultPlan << "\n";
    if (!sample.empty())
        oss << "Sampling   " << SamplePlan::parse(sample).describe() << "\n";
    return oss.str();
}

uint64_t
GpuConfig::fingerprint() const
{
    // FNV-1a over the numeric fields; any change invalidates cached runs.
    // Run-control knobs (max_cycles, watchdog_*) and the host-side
    // speed knob (cycle_skipping) are deliberately NOT mixed in: they
    // never change the stats of a run that completes, so tightening a
    // budget must not orphan valid cache entries. The fault plan IS mixed
    // in — injected backpressure changes timing.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    // Machine identity: two field-identical machines with different names
    // are different experiments (the name lands in every artifact), so
    // they must not share cache entries either.
    for (char c : machineName)
        mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    mix(numSms); mix(warpSize); mix(maxThreadsPerSm); mix(maxCtasPerSm);
    mix(sharedMemPerSm); mix(numSchedulers);
    mix(static_cast<uint64_t>(warpSched));
    for (const FuTiming &t : opTiming) {
        mix(t.latency);
        mix(t.initiation);
    }
    mix(sharedMemLatency); mix(l1HitLatency); mix(ldstQueueDepth);
    mix(l1.sizeBytes); mix(l1.lineBytes); mix(l1.assoc);
    mix(l1.mshrEntries); mix(l1.mshrMaxMerge);
    mix(numPartitions);
    mix(l2.sizeBytes); mix(l2.lineBytes); mix(l2.assoc);
    mix(l2.mshrEntries); mix(l2.mshrMaxMerge);
    mix(ropLatency); mix(icntLatency); mix(icntInjectQueueDepth);
    mix(icntRespQueueDepth); mix(partQueueDepth);
    mix(dramLatency); mix(dramBurstCycles); mix(dramQueueDepth);
    mix(dramBanks); mix(dramRowBytes); mix(dramActLatency);
    mix(static_cast<uint64_t>(ctaSched)); mix(ctaClusterSize);
    mix(smsPerL2Cluster); mix(nondetSplitRequests);
    // The crit profiler never changes timing, but it does add the crit.*
    // key schema to the finalized stats, so an enabled run must not share
    // a cache entry with a disabled one. Mixed only when on, so every
    // pre-existing (disabled) fingerprint stays valid.
    if (crit)
        mix(1);
    for (char c : faultPlan)
        mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    // Sampled stats are partial by construction: the sample spec must
    // separate cache entries from full runs. Mixed only when sampling is
    // on, so every pre-existing fingerprint stays valid.
    if (!sample.empty()) {
        mix(2);
        for (char c : sample)
            mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    return h;
}

uint64_t
GpuConfig::functionalFingerprint() const
{
    // FNV-1a over the functional identity only — see the header comment.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(warpSize);
    // The fast-forward's wave size (Gpu::ctasPerWave) decides which CTAs
    // it interleaves and the book's wave counts, so its inputs separate
    // prefixes too.
    mix(numSms); mix(maxThreadsPerSm); mix(maxCtasPerSm);
    mix(sharedMemPerSm);
    // The spec decides which CTAs the fast-forward executes (and in what
    // interleaving with detailed windows), so two specs never share a
    // prefix.
    for (char c : sample)
        mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    return h;
}

} // namespace gcl::sim
