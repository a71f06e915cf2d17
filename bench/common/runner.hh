/**
 * @file
 * Shared experiment runner behind bench/gcl_paper.
 *
 * Every artifact of the paper reads runs of the 15-application suite,
 * some under several configs. runApps() takes the runs of every artifact
 * asked for as one batch of (application, config) pairs: it drops the
 * pairs that share a cache key, loads the cache hits, simulates the misses
 * on --jobs threads of exec::parallelFor (inline and in order at one job)
 * and publishes cache entries, export records and trace fragments in
 * declaration order. Finished runs are memoized on disk keyed by
 * (application, dataset version, config fingerprint), so a second
 * gcl_paper replays them. Set GCL_BENCH_CACHE to move the cache
 * (default: ./bench_results).
 *
 * Flags, parsed by initBench():
 *   --machine=NAME|PATH       load the machine description (configs/ zoo
 *                             name or a .config file path; default: the
 *                             compiled-in C2050)
 *   --trace-out=FILE          stream a Chrome trace-event JSON (Perfetto)
 *   --timeline-interval=N     sample occupancy counters every N cycles
 *   --stats-json=FILE         dump every app's finalized stats as JSON
 *   --stats-csv=FILE          same, as a flat CSV table
 *   --apps=a,b,c              restrict the suite runs to these
 *                             applications (fixed app lists stay whole)
 *   --fresh                   ignore the on-disk run cache
 *   --jobs=N                  simulate up to N runs concurrently
 *                             (0 = one per hardware thread; default
 *                             GCL_BENCH_JOBS, else 1)
 *   --max-cycles=N            per-run cycle budget
 *   --sim-config=K=V,...      config overrides
 *   --fault-plan=SPEC         fault injection
 *   --crit                    enable the gcl::crit criticality profiler
 *                             (per-PC stall attribution + latency
 *                             decomposition folded into the stats;
 *                             tools/crit_report renders it from
 *                             --stats-json)
 *   --sample=SPEC             sampled simulation: fast-forward outside
 *                             the spec's detailed windows (warming the
 *                             caches before each) and extrapolate
 *                             whole-run stats (grammar in
 *                             src/sim/sample.hh). Sampled runs get their
 *                             own cache entries. Within one process, the
 *                             runs of an app that share a functional
 *                             fingerprint share one fast-forward prefix
 *                             (workloads::PrefixStore): the first captures
 *                             it, the rest start warm, serial or --jobs
 *                             alike
 * Tracing always simulates fresh: a cached stats file has no events. Each
 * traced run streams its events into its own spill file beside the
 * staging trace; publication splices the spill files in declaration order.
 *
 * SIGINT/SIGTERM request a cooperative stop: in-flight runs unwind with a
 * structured "canceled" failure record, queued runs are skipped with a
 * "skipped" record, and a per-run summary tells the user which runs
 * completed, failed or never started. A second signal kills the process
 * immediately.
 *
 * --jobs spreads a batch *across* runs: each run is a thread-confined
 * workloads::SimContext run by exec::parallelFor, and everything a
 * run leaves behind is published in declaration order — so every artifact
 * is bit-identical to a --jobs=1 batch. Each simulation's cycle loop runs
 * on the one thread that owns its SimContext.
 */

#ifndef GCL_BENCH_COMMON_RUNNER_HH
#define GCL_BENCH_COMMON_RUNNER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "util/stats.hh"

namespace gcl::bench
{

/** One finished application run. */
struct AppResult
{
    std::string name;
    std::string category;    //!< "linear" / "image" / "graph"
    sim::GpuConfig config;   //!< the config it ran under
    bool verified = false;   //!< CPU reference check passed
    StatsSet stats;          //!< finalized simulator stats
    SimFailure failure;      //!< structured failure record (failed=false
                             //!< on a clean run)
    bool skipped = false;    //!< never simulated (batch cancelled first)
};

/** One simulation an artifact reads: an application under a config. */
struct Run
{
    std::string app;
    sim::GpuConfig config;
};

/** The finished runs of one runApps() batch. */
class Results
{
  public:
    /**
     * The result of @p app under @p config. Fatal when the batch did not
     * declare that run: an artifact reads only what it declared.
     */
    const AppResult &at(const std::string &app,
                        const sim::GpuConfig &config) const;

    /** at(app, config) for each Table I app --apps selects, in order. */
    std::vector<const AppResult *> suite(const sim::GpuConfig &config) const;

    /**
     * Add @p result as its app's run under its config. runApps() fills a
     * batch this way; tests feed fabricated runs.
     */
    void add(AppResult result);

  private:
    std::map<std::string, AppResult> byKey_; //!< by cache key
};

/**
 * Parse the shared flags; call first thing in main(). Returns the
 * positional (non-flag) arguments in order. Unknown flags are fatal;
 * `--help` prints @p usage, then the flags, and exits. Artifact files
 * (trace/stats) are finalized automatically at process exit.
 */
std::vector<std::string> initBench(int argc, char **argv,
                                   const std::string &usage);

/** One run per Table I application --apps selects, under @p config. */
std::vector<Run> suiteRuns(const sim::GpuConfig &config);

/**
 * Run (or load) a batch. Runs that share a cache key run once. Cache
 * hits load inline; the misses run on --jobs workers (else
 * GCL_BENCH_JOBS, else 1). Cache entries, export records and trace
 * fragments are published in declaration order, so the artifacts do not
 * depend on the job count.
 */
Results runApps(const std::vector<Run> &runs);

/**
 * The base configuration every bench starts from: the machine resolved by
 * --machine, or the compiled-in C2050 defaults when it is not set. --sim-config overrides layer on top per run (appConfig).
 */
sim::GpuConfig defaultConfig();

/**
 * Print the standard artifact header (title, machine, config fingerprint,
 * overrides) to @p out. The cache status goes to stderr, so stdout
 * depends only on the code and the flags.
 */
void printHeader(const std::string &title, const sim::GpuConfig &config,
                 std::ostream &out);

/**
 * End-of-main hook: print a summary of failed runs and return the process
 * exit code (0 = all clean, 3 = at least one run produced a failure
 * record), so a batch degrades gracefully — failed runs are reported, not
 * fatal.
 */
int finishBench();

} // namespace gcl::bench

#endif // GCL_BENCH_COMMON_RUNNER_HH
