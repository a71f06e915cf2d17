/**
 * @file
 * gcl::crit — per-load criticality profiler: issue-slot stall attribution
 * and per-stage memory-latency decomposition (DESIGN.md "Criticality
 * profiler").
 *
 * The paper's core observation (Figs. 5-7) is that a handful of loads are
 * *critical*: warps stall behind them far longer than miss ratios suggest.
 * This layer makes that observation a cheap, always-available report
 * instead of a trace post-processing job. Two kinds of accounting:
 *
 *  - Issue slots. Every SM cycle offers numSchedulers issue slots. Each
 *    slot either issues an instruction or is charged to exactly one
 *    StallReason; data hazards are charged to the PRODUCING instruction's
 *    PC (via the scoreboard), so time spent waiting on a load's result is
 *    charged to the load itself. The invariant
 *        issued + sum(stall[*]) == cycles * issue_width
 *    holds exactly per SM and globally; tools/trace_check re-verifies it
 *    on every exported stats file.
 *
 *  - Request latency. MemRequests are stamped at every stage transition
 *    (accept -> L1 -> ICNT -> L2 -> DRAM -> response); the per-stage
 *    deltas fold into per-PC log2-bucket histograms when the request
 *    completes, so each load's turnaround decomposes into where the time
 *    went.
 *
 * Contracts:
 *  - One per-PC table per run, owned by CritStats: every SM's hooks add
 *    into it, in the order the serial tick runs them. That order cannot
 *    reach the output: every PcCrit count and sum adds integer cycle
 *    counts, and a PC's loadClass comes from its launch's one class
 *    table. Each SM keeps only its scalar counters (SmCrit), written
 *    only by that SM's tick; its cycles, issued and stall[] are the
 *    crit.sm<i>.* keys.
 *  - Near-zero cost when disabled: every hook sits behind a null-pointer
 *    check on Sm::crit (the tracing idiom).
 */

#ifndef GCL_CRIT_CRIT_HH
#define GCL_CRIT_CRIT_HH

#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stats.hh"

namespace gcl::crit
{

using Cycle = uint64_t;

/**
 * Why an issue slot did not issue. One reason per slot per cycle; when
 * several causes overlap the attribution rules in DESIGN.md pick the
 * blocking warp's first failing readiness condition (the same order
 * Sm::warpReady tests them), so charging is deterministic.
 */
enum class StallReason : uint8_t {
    DataHazard = 0,   ///< scoreboard wait; charged to the producer's PC
    Barrier,          ///< warp parked at a CTA barrier
    IbufferEmpty,     ///< CTAs resident but no active warp on the scheduler
    Pipeline,         ///< structural: exec stage busy, ldst head blocked, …
    MshrFull,         ///< ldst queue head last failed on a full L1 MSHR
    IcntBackpressure, ///< ldst queue head last failed to inject into ICNT
    IdleNoCta,        ///< nothing resident (drain, launch gaps, idle SM)
};

inline constexpr unsigned kNumReasons = 7;

/** Stable lowercase identifier used in stats keys and reports. */
const char *reasonName(StallReason reason);

/** Producer/load class for attribution joins (0 other, 1 det, 2 nondet). */
inline constexpr unsigned kNumClasses = 3;

/** Stable class identifier ("other", "det", "nondet"). */
const char *className(unsigned cls);

/**
 * Stages of a global-load request's life, in stamp order. `Merge` covers
 * requests folded into an in-flight L1 MSHR entry (they never traverse
 * the interconnect themselves; their whole wait is the primary's trip).
 * An L2-MSHR merge has no DRAM enqueue stamp, so its DRAM wait counts as
 * `L2` — the request really did spend that time inside the partition.
 */
enum class Stage : uint8_t {
    Accept = 0, ///< coalesce + ldst queue: issue -> L1 accepts the request
    L1,         ///< L1 hit latency (hit-return queue wait included)
    Merge,      ///< L1-MSHR-merged secondary: accept -> data return
    IcntToL2,   ///< interconnect request traversal: inject -> L2 arrival
    L2,         ///< L2 lookup/queue (plus DRAM wait for L2-MSHR merges)
    Dram,       ///< DRAM queue + service: enqueue -> fill
    Resp,       ///< response path: L2 done -> SM completes the request
};

inline constexpr unsigned kNumStages = 7;

/** Stable lowercase identifier used in stats keys and reports. */
const char *stageName(Stage stage);

/**
 * Log2 bucketing for latency histograms: value v lands in bucket
 * bit_width(v), i.e. bucket b>0 covers [2^(b-1), 2^b) and bucket 0 is
 * exactly zero. 42 buckets cover every delta a 64-bit cycle count can
 * realistically produce.
 */
inline constexpr unsigned kLog2Buckets = 42;

inline unsigned
log2Bucket(uint64_t value)
{
    const unsigned width = static_cast<unsigned>(std::bit_width(value));
    return width < kLog2Buckets ? width : kLog2Buckets - 1;
}

/** Everything attributed to one static instruction (one PC). */
struct PcCrit {
    uint8_t loadClass = 0; ///< 0 other, 1 deterministic, 2 non-deterministic
    uint64_t stallSlots = 0;
    uint64_t stallByReason[kNumReasons] = {};
    uint64_t turnCnt = 0; ///< completed global-load warp ops
    double turnSum = 0.0; ///< sum of turnaround cycles
    uint64_t turnLog2[kLog2Buckets] = {};
    uint64_t stageCnt[kNumStages] = {};
    double stageSum[kNumStages] = {};
    uint64_t stageLog2[kNumStages][kLog2Buckets] = {};
};

/** The run's per-PC records, keyed by pcKey. */
using PcTable = std::unordered_map<uint64_t, PcCrit>;

/**
 * One SM's issue-slot counters. Its per-PC charges go to the run-wide
 * table it was handed. The owning Sm is the only writer (during the
 * tick); the watchdog reads it only after ticking has stopped.
 */
class SmCrit
{
  public:
    explicit SmCrit(PcTable &pcs) : pcs_(pcs) {}

    uint64_t cycles = 0; ///< SM cycles observed (busy + idle)
    uint64_t issued = 0; ///< slots that issued an instruction
    uint64_t stall[kNumReasons] = {};
    /** DataHazard slots split by the producer's load class. */
    uint64_t dhzByClass[kNumClasses] = {};

    /** Idle SM cycle: all @p width slots are lost to IdleNoCta. */
    void idleCycle(unsigned width)
    {
        ++cycles;
        stall[static_cast<unsigned>(StallReason::IdleNoCta)] += width;
    }

    /**
     * @p count idle cycles at once (event-driven skip crediting a dead
     * span); equivalent to calling idleCycle(width) count times.
     */
    void idleCycles(unsigned width, uint64_t count)
    {
        cycles += count;
        stall[static_cast<unsigned>(StallReason::IdleNoCta)] +=
            static_cast<uint64_t>(width) * count;
    }

    /** Charge @p count slots to @p reason with no PC attribution. */
    void charge(StallReason reason, uint64_t count = 1)
    {
        stall[static_cast<unsigned>(reason)] += count;
    }

    /**
     * Charge @p count slots to @p reason, attributed to the instruction
     * at @p pc_key (see pcKey) whose load class is @p load_class. Counts
     * above 1 come from the event-driven skip: the charge a scheduler
     * would repeat every cycle of a dead span is provably constant across
     * the span, so it is applied once, multiplied.
     */
    void chargePc(StallReason reason, uint64_t pc_key, uint8_t load_class,
                  uint64_t count = 1);

    /** Fold one completed stage delta into @p pc_key's breakdown. */
    void stage(uint64_t pc_key, Stage stage, Cycle delta);

    /** A global-load warp op at @p pc_key retired after @p turnaround. */
    void opDone(uint64_t pc_key, Cycle turnaround, uint8_t load_class);

    /**
     * This SM's line of a HangReport: its top-3 stall reasons, as % of
     * its charged slots. Empty when nothing was charged yet.
     */
    std::string hangSummary() const;

  private:
    PcTable &pcs_;
};

/** Key for per-PC maps: kernel id in the high word, PC in the low. */
inline uint64_t
pcKey(unsigned kernel_id, uint64_t pc)
{
    return (static_cast<uint64_t>(kernel_id) << 32) | pc;
}

/**
 * Whole-device profiler state: the run's per-PC table and one SmCrit per
 * SM (created in SM-id order by the Gpu constructor), folded into the
 * run's StatsSet at finalize. See crit.cc for the exported key schema.
 */
class CritStats
{
  public:
    /** @p issue_width is GpuConfig::numSchedulers (slots per SM cycle). */
    explicit CritStats(unsigned issue_width) : issueWidth_(issue_width) {}

    CritStats(const CritStats &) = delete;
    CritStats &operator=(const CritStats &) = delete;

    /** The next SM's counters; stable storage, never moved. */
    SmCrit &newSm() { return sms_.emplace_back(pcs_); }

    unsigned issueWidth() const { return issueWidth_; }

    /**
     * The run's line of a HangReport: its top-3 blocking PCs by stall
     * slots. Empty when no slot was charged to a PC yet.
     */
    std::string hangBlocking() const;

    /**
     * Emit the crit.* key schema into @p set. Idempotent. @p kernel_names
     * indexes kernel ids into human-readable names
     * (SimStats::kernelNames()).
     */
    void finalize(const std::vector<std::string> &kernel_names,
                  StatsSet &set);

  private:
    unsigned issueWidth_;
    PcTable pcs_;
    std::deque<SmCrit> sms_;
    bool finalized_ = false;
};

} // namespace gcl::crit

#endif // GCL_CRIT_CRIT_HH
