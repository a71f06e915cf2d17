/**
 * @file
 * Renderers over the finalized crit.* stats schema (see crit.cc): the
 * per-class CPI stack, the ranked top-N critical-load table, and a
 * collapsed-stack file consumable by standard flamegraph tools. Everything
 * here reads only a finalized StatsSet, so the same code serves
 * tools/crit_report (offline, from a stats JSON), gcl_paper figX_cpi_stack
 * (live, across the suite) and the bench runner's --crit-out flag.
 *
 * All output is deterministic: inputs are deterministic merged stats and
 * every sort has a total order, so reports are byte-identical across
 * --jobs (scripts/check.sh diffs them against a committed golden).
 */

#ifndef GCL_CRIT_REPORT_HH
#define GCL_CRIT_REPORT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "crit.hh"
#include "util/stats.hh"

namespace gcl::crit
{

/** The device-wide issue-slot breakdown extracted from crit.* scalars. */
struct CpiStack {
    bool valid = false; ///< false when the stats carry no crit section
    double issueWidth = 0;
    double slots = 0; ///< cycles * issue_width (all slots offered)
    double issued = 0;
    double stall[kNumReasons] = {};
    double dhzByClass[kNumClasses] = {}; ///< data-hazard split by class
};

CpiStack cpiStack(const StatsSet &stats);

/** One row of the critical-load table (one static global load). */
struct CritLoad {
    std::string kernel;
    uint64_t pc = 0;
    unsigned cls = 0; ///< 1 det, 2 nondet
    double stallSlots = 0;
    double turnCnt = 0;
    double turnMean = 0;
    double turnP99 = 0; ///< upper edge of the p99 log2 bucket
    double stageSum[kNumStages] = {};
};

/**
 * Loads ranked by issue-stall slots charged (desc), then turnaround sum,
 * then kernel/pc — a total order, so the ranking is reproducible.
 * Non-load PCs (producers charged under data_hazard.other) are excluded.
 */
std::vector<CritLoad> topLoads(const StatsSet &stats, size_t top_n);

/** Human-readable CPI stack + top-N table for one app. */
void renderText(std::ostream &out, const std::string &app,
                const StatsSet &stats, size_t top_n);

/**
 * CSV rows (RFC 4180) for one app's top-N loads; emit @p header once per
 * file. Columns: app,kernel,pc,class,stall_slots,stall_share,loads,
 * mean_turnaround,p99_turnaround,<one column per stage sum>.
 */
void renderCsv(std::ostream &out, const std::string &app,
               const StatsSet &stats, size_t top_n, bool header);

/**
 * Collapsed-stack lines ("frame;frame;... count"), one sample per issue
 * slot: issued slots, PC-attributed stalls (reason -> class -> PC), and
 * the unattributed remainder per reason.
 */
void appendCollapsed(std::ostream &out, const std::string &app,
                     const StatsSet &stats);

} // namespace gcl::crit

#endif // GCL_CRIT_REPORT_HH
