/**
 * @file
 * Small shared helpers for the figure benches: per-class ratio extraction
 * and per-pc histogram discovery.
 */

#ifndef GCL_BENCH_COMMON_FIGURES_HH
#define GCL_BENCH_COMMON_FIGURES_HH

#include <string>
#include <vector>

#include "runner.hh"

namespace gcl::bench
{

/** "x" -> "x.det" or "x.nondet". */
inline std::string
classKey(const std::string &key, bool non_det)
{
    return key + (non_det ? ".nondet" : ".det");
}

/** Per-class ratio of two stat keys; 0 when the class never ran. */
inline double
classRatio(const StatsSet &stats, const char *num, const char *den,
           bool non_det)
{
    return stats.ratio(classKey(num, non_det), classKey(den, non_det));
}

/** One load pc discovered from the per-pc stats. */
struct PcSeries
{
    std::string kernel;
    uint32_t pc = 0;
    bool nonDet = false;
    double totalWarps = 0;   //!< total dynamic executions
    std::string prefix;      //!< "pc.<kernel>#<pc>."
};

/** All load pcs recorded in @p stats, heaviest first. */
std::vector<PcSeries> discoverPcSeries(const StatsSet &stats);

/** The heaviest pc of the given class; nullptr-like (empty prefix) if none. */
PcSeries hottestPc(const StatsSet &stats, bool non_det);

} // namespace gcl::bench

#endif // GCL_BENCH_COMMON_FIGURES_HH
