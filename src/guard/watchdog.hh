/**
 * @file
 * Forward-progress watchdog for cycle-accurate simulation loops.
 *
 * A stuck simulation — a leaked MSHR entry, a dropped fill, a scoreboard
 * register that is never released — does not crash: the cycle loop simply
 * spins forever with nothing retiring. Before this subsystem, such a run
 * either burned its whole max_cycles budget (minutes of wall clock) or
 * deadlocked a ctest job. The watchdog detects the condition within a
 * bounded window and produces a structured HangReport naming exactly what
 * is stuck where.
 *
 * Algorithm: the device loop calls onCycle(now, insts, reqs) every cycle
 * with two monotone progress counters (warp instructions issued, memory
 * requests completed). The call is O(1) and normally a single predicted
 * branch; every `interval` cycles the counters are compared against the
 * previous check's snapshot. Any delta counts as progress. When
 * `budget` cycles elapse without progress the check fires; the caller
 * then assembles a HangReport (per-SM warp states, queue occupancies,
 * request conservation) and raises SimError{Kind::Hang} with the report
 * attached.
 *
 * The granularity of hang detection is one check interval: a hang is
 * reported between `budget` and `budget + interval` cycles after the last
 * real progress. EXPERIMENTS.md quantifies the (negligible) overhead at
 * intervals of 1k/10k/100k cycles.
 */

#ifndef GCL_GUARD_WATCHDOG_HH
#define GCL_GUARD_WATCHDOG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gcl::guard
{

/** One SM's state at hang time. */
struct SmHangInfo
{
    int sm = -1;
    unsigned residentCtas = 0;
    unsigned activeWarps = 0;
    unsigned warpsAtBarrier = 0;
    uint64_t inflightOps = 0;     //!< scoreboard acquire/release imbalance
    size_t ldstQueued = 0;        //!< warp memory ops in the LD/ST unit
    size_t pendingOps = 0;        //!< ops that left the stage, data pending
    size_t mshrOccupancy = 0;     //!< allocated L1 MSHR entries
    size_t reservedLines = 0;     //!< L1 lines reserved for in-flight fills
    std::string stuckWarps;       //!< "w3@pc12 w7@pc12 ..." (first few)
    /**
     * This SM's top-3 stall reasons from the crit profiler when it is
     * enabled (pre-rendered by crit::SmCrit::hangSummary); empty
     * otherwise. Kept as a plain string so guard does not depend on
     * gcl::crit.
     */
    std::string critSummary;
};

/** One memory partition's state at hang time. */
struct PartitionHangInfo
{
    int partition = -1;
    size_t ropQueued = 0;
    size_t dramQueued = 0;
    size_t respQueued = 0;
    size_t mshrOccupancy = 0;     //!< allocated L2 MSHR entries
    size_t reservedLines = 0;
};

/**
 * Structured snapshot of a hung device, assembled by Gpu::buildHangReport
 * when the watchdog fires. render() gives the multi-line human view that
 * lands in the failure record's detail field.
 */
struct HangReport
{
    std::string kernel;           //!< kernel whose launch hung
    uint64_t cycle = 0;           //!< cycle the watchdog fired
    uint64_t lastProgressCycle = 0;
    uint64_t stallCycles = 0;     //!< cycle - lastProgressCycle

    // Conservation: every request issued must eventually be retired.
    uint64_t instsIssued = 0;     //!< warp instructions issued, total
    uint64_t reqsIssued = 0;      //!< data-expecting requests accepted
    uint64_t reqsCompleted = 0;   //!< requests whose data returned
    uint64_t reqsInFlight() const { return reqsIssued - reqsCompleted; }

    size_t icntReqQueued = 0;
    size_t icntRespQueued = 0;

    std::vector<SmHangInfo> sms;
    std::vector<PartitionHangInfo> partitions;

    /**
     * The run's top-3 blocking PCs from the crit profiler when it is
     * enabled (pre-rendered by crit::CritStats::hangBlocking); empty
     * otherwise.
     */
    std::string critBlocking;

    /**
     * Set when assembling the per-unit detail itself failed (a nested
     * SimError while walking a wedged device). The report then carries
     * the conservation counters plus this note instead of aborting the
     * hang path — both faults surface (see DESIGN.md, double-fault
     * hardening).
     */
    std::string compositionError;

    /** One-line summary for the SimError message. */
    std::string summary() const;

    /** Full multi-line report (failure-record detail field). */
    std::string render() const;
};

/** Progress tracker driven from the device cycle loop. */
class Watchdog
{
  public:
    /**
     * @param interval cycles between progress checks (0 disables)
     * @param budget cycles without progress before the watchdog fires
     */
    Watchdog(uint64_t interval, uint64_t budget)
        : interval_(interval), budget_(budget)
    {}

    bool enabled() const { return interval_ != 0; }
    uint64_t interval() const { return interval_; }
    uint64_t budget() const { return budget_; }

    /** Start of a launch: everything up to @p now counts as progress. */
    void
    beginLaunch(uint64_t now, uint64_t insts, uint64_t reqs)
    {
        lastProgress_ = now;
        lastInsts_ = insts;
        lastReqs_ = reqs;
        nextCheck_ = interval_ ? now + interval_ : ~uint64_t{0};
    }

    /**
     * Per-cycle hook; O(1), one branch until the next check is due.
     * @retval true the stall budget is exhausted — build a HangReport.
     */
    bool
    onCycle(uint64_t now, uint64_t insts, uint64_t reqs)
    {
        if (now < nextCheck_)
            return false;
        return check(now, insts, reqs);
    }

    /** Cycle of the last observed progress (valid after a fire). */
    uint64_t lastProgressCycle() const { return lastProgress_; }

  private:
    bool check(uint64_t now, uint64_t insts, uint64_t reqs);

    uint64_t interval_;
    uint64_t budget_;
    uint64_t nextCheck_ = ~uint64_t{0};
    uint64_t lastProgress_ = 0;
    uint64_t lastInsts_ = 0;
    uint64_t lastReqs_ = 0;
};

} // namespace gcl::guard

#endif // GCL_GUARD_WATCHDOG_HH
