/**
 * @file
 * The paper's artifacts as one registry: Tables I-III, Figs 1-12, the
 * CPI-stack figure, the Section X ablations and the L1-size claim.
 *
 * Each artifact declares the runs it reads and prints its table from their
 * results; the per-app tables are data printed by one renderer
 * (app_table.hh). bench/gcl_paper runs the union of the named artifacts'
 * runs as one runApps() batch, then prints each artifact in registry
 * order; the stdout of each at the default config is committed as
 * tests/goldens/paper/<name>.txt.
 */

#ifndef GCL_BENCH_COMMON_PAPER_HH
#define GCL_BENCH_COMMON_PAPER_HH

#include <functional>
#include <ostream>
#include <vector>

#include "runner.hh"

namespace gcl::bench
{

/** One table or figure of the paper. */
struct Artifact
{
    const char *name;  //!< gcl_paper argument and golden file name
    const char *title; //!< header line
    /** Runs and header take the base config with the crit profiler on. */
    bool crit;
    /** The runs print() reads, under the artifact's base config. */
    std::vector<Run> (*runs)(const sim::GpuConfig &base);
    /** Print the artifact's body (after its header) from @p results. */
    std::function<void(const sim::GpuConfig &base, const Results &results,
                       std::ostream &out)>
        print;
};

/** Every artifact, in print order. */
const std::vector<Artifact> &artifacts();

/** The base config @p artifact runs and prints under. */
sim::GpuConfig artifactBase(const Artifact &artifact);

} // namespace gcl::bench

#endif // GCL_BENCH_COMMON_PAPER_HH
