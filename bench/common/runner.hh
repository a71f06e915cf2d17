/**
 * @file
 * Shared experiment runner for the figure/table benches.
 *
 * Every bench binary regenerates its figure from the same 15-application
 * simulation sweep. Since one sweep costs the better part of a minute, the
 * runner memoizes finished runs on disk keyed by (application, dataset
 * version, config fingerprint); running every binary in build/bench
 * therefore simulates each configuration once and replays it everywhere
 * else. Set GCL_BENCH_FRESH=1 to ignore the cache, GCL_BENCH_CACHE to move
 * it (default: ./bench_results).
 *
 * Observability (gcl::trace) is wired in behind flags, parsed by
 * initBench():
 *   --machine=NAME|PATH       load the machine description (configs/ zoo
 *                             name or a .config file path; default
 *                             GCL_MACHINE, else the compiled-in C2050)
 *   --trace-out=FILE          stream a Chrome trace-event JSON (Perfetto)
 *   --timeline-interval=N     sample occupancy counters every N cycles
 *   --stats-json=FILE         dump every app's finalized stats as JSON
 *   --stats-csv=FILE          same, as a flat CSV table
 *   --apps=a,b,c              restrict runSuite() to these applications
 *   --fresh                   ignore the on-disk run cache (= GCL_BENCH_FRESH)
 *   --jobs=N                  simulate up to N applications concurrently
 *                             (0 = one per hardware thread; default
 *                             GCL_BENCH_JOBS, else 1)
 *   --crit                    enable the gcl::crit criticality profiler
 *                             (per-PC stall attribution + latency
 *                             decomposition folded into the stats)
 *   --crit-top-n=N            rows in the critical-load table (default 10)
 *   --crit-out=FILE           write the per-app crit report (implies
 *                             --crit); FILE.collapsed additionally gets
 *                             collapsed-stack lines for flamegraph tools
 *   --sample=SPEC             sampled simulation (= GCL_SAMPLE): fast-
 *                             forward outside the spec's detailed windows
 *                             and extrapolate whole-run stats (grammar in
 *                             src/sim/sample.hh). Sampled runs get their
 *                             own cache entries, and share one functional
 *                             fast-forward prefix snapshot (in
 *                             <cache>/snap) across a --machine sweep
 *                             (warm-start), serial or --jobs alike
 *   --ff-warm=0|1             warm L1/L2 tags from the fast-forwarded
 *                             address stream before each detailed window
 *                             (default 1; 0 = cold windows)
 * Tracing always simulates fresh: a cached stats file has no events.
 *
 * SIGINT/SIGTERM request a cooperative stop: in-flight runs unwind with a
 * structured "canceled" failure record, queued sweep runs are skipped
 * with a "skipped" record, and a per-run summary tells the user which
 * runs completed, failed or never started. A second signal kills the
 * process immediately.
 *
 * --jobs spreads the sweep *across* applications: each run is a
 * thread-confined workloads::SimContext scheduled on a gcl::exec pool,
 * results land in canonical (Table I) order, and per-run trace sinks are
 * merged into one well-formed Chrome trace — so every artifact is
 * bit-identical to a --jobs=1 sweep. Each simulation's cycle loop runs on
 * the one thread that owns its SimContext.
 */

#ifndef GCL_BENCH_COMMON_RUNNER_HH
#define GCL_BENCH_COMMON_RUNNER_HH

#include <cstdint>
#include <string>
#include <utility>
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
    bool verified = false;   //!< CPU reference check passed
    StatsSet stats;          //!< finalized simulator stats
    SimFailure failure;      //!< structured failure record (failed=false
                             //!< on a clean run)
    bool skipped = false;    //!< never simulated (sweep cancelled first)

    // Event-driven skip accounting (host-side wall-clock diagnostics;
    // deliberately NOT part of stats — the exported artifacts are
    // byte-identical with cycle_skipping on and off, and trace_check
    // enforces that these never leak into them).
    uint64_t skippedCycles = 0; //!< cycles the clock jumped over
    uint64_t skipEvents = 0;    //!< jumps taken
    uint64_t dormantCycles = 0; //!< unit-cycles asleep, jumps included
};

/** Observability options shared by every bench binary. */
struct Options
{
    std::string traceOut;          //!< Chrome trace-event JSON path
    std::string statsJson;         //!< stats JSON path
    std::string statsCsv;          //!< stats CSV path
    uint64_t timelineInterval = 0; //!< counter sampling period (cycles)
    bool fresh = false;            //!< bypass the run cache
    std::vector<std::string> apps; //!< runSuite() filter (empty = all)
    unsigned jobs = 0;             //!< --jobs value (0 = unset/env/serial)
    uint64_t maxCycles = 0;        //!< per-run cycle budget (0 = default)
    std::string machine;           //!< --machine spec (name or path)
    std::string simConfig;         //!< key=value config overrides
    std::string faultPlan;         //!< guard::FaultPlan spec
    bool crit = false;             //!< enable the criticality profiler
    unsigned critTopN = 10;        //!< critical-load table depth
    std::string critOut;           //!< crit report path (implies crit)
    std::string sample;            //!< sampled-simulation spec (empty = off)
    int ffWarm = -1;               //!< --ff-warm (-1 = config default)
};

/**
 * Parse the shared observability flags; call first thing in main().
 * Unknown flags are fatal; `--help` prints usage and exits. Artifact
 * files (trace/stats) are finalized automatically at process exit.
 */
void initBench(int argc, char **argv);

/** The options parsed by initBench() (defaults before it runs). */
const Options &options();

/** Run (or load) one application under @p config. */
AppResult runApp(const std::string &name, const sim::GpuConfig &config);

/**
 * Run (or load) the full Table I suite; results are always in Table I
 * order. With an effective job count > 1 the uncached applications are
 * simulated concurrently (one SimContext per job on a gcl::exec pool);
 * stats, cache entries, records and traces are identical to a serial run.
 */
std::vector<AppResult> runSuite(const sim::GpuConfig &config);

/** The job count runSuite() will use: --jobs, else GCL_BENCH_JOBS, else 1. */
unsigned effectiveJobs();

/**
 * The base configuration every bench starts from: the machine resolved by
 * --machine / GCL_MACHINE, or the compiled-in C2050 defaults when neither
 * is set. --sim-config overrides layer on top per run (appConfig).
 */
sim::GpuConfig defaultConfig();

/** Print the standard bench header (config fingerprint + cache status). */
void printHeader(const std::string &title, const sim::GpuConfig &config);

/**
 * End-of-main hook: print a summary of failed runs and return the process
 * exit code (0 = all clean, 3 = at least one run produced a failure
 * record). Every bench main ends with `return bench::finishBench();` so a
 * sweep degrades gracefully — failed runs are reported, not fatal.
 */
int finishBench();

} // namespace gcl::bench

#endif // GCL_BENCH_COMMON_RUNNER_HH
