#include "runner.hh"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "crit/report.hh"
#include "exec/scheduler.hh"
#include "guard/cancel.hh"
#include "guard/fault.hh"
#include "sim/gpu.hh"
#include "sim/machine.hh"
#include "trace/chrome_writer.hh"
#include "trace/export.hh"
#include "trace/json.hh"
#include "trace/trace.hh"
#include "util/count.hh"
#include "util/file.hh"
#include "util/logging.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace gcl::bench
{

namespace
{

/** Bump when any workload's dataset or kernel changes shape. */
constexpr unsigned kDatasetVersion = 5;

/**
 * Cache entry format version, written into every entry's header line and
 * required to match on load. Bump whenever the header or body layout
 * changes so stale entries become clean misses instead of parse errors.
 *   v2: header gained this schema field ("gclbench <schema> <verified>").
 *   v3: the end-of-cycle global write commit (stores/atomics applied at
 *       end of cycle in SM-id order) shifted functional timing, so v2
 *       stats are stale even though the config fingerprint did not
 *       change.
 *   v4: the machine-description frontend changed what the fingerprint
 *       covers (machine name, per-opcode-class timing, DRAM row model),
 *       so v3 keys can alias configs the old hash never distinguished.
 *   v5: the SM issues as soon as a busy SP/SFU stage frees under a ready
 *       warp (it used to wait for an unrelated event), which moves the
 *       stats of apps that queue on a stage, e.g. bpr and mriq on C2050.
 *   v6: every unit adds into one stats sink, so each op's fractional
 *       mean gap_icnt_l2 joins one device-wide sum in completion order
 *       instead of per-SM sums merged in SM order; the last bits of
 *       some pc.*.gap_icnt_l2 weights round differently.
 */
constexpr unsigned kCacheSchemaVersion = 6;

std::filesystem::path
cacheDir()
{
    if (const char *env = std::getenv("GCL_BENCH_CACHE"))
        return env;
    return "bench_results";
}

/** The flags initBench() parsed. */
struct Options
{
    std::string traceOut;          //!< Chrome trace-event JSON path
    std::string statsJson;         //!< stats JSON path
    std::string statsCsv;          //!< stats CSV path
    uint64_t timelineInterval = 0; //!< counter sampling period (cycles)
    bool fresh = false;            //!< bypass the run cache
    std::vector<std::string> apps; //!< suite filter (empty = all)
    unsigned jobs = 0;             //!< --jobs value (0 = unset/env/serial)
    uint64_t maxCycles = 0;        //!< per-run cycle budget (0 = default)
    std::string machine;           //!< --machine spec (name or path)
    std::string simConfig;         //!< key=value config overrides
    std::string faultPlan;         //!< guard::FaultPlan spec
    bool crit = false;             //!< enable the criticality profiler
    unsigned critTopN = 10;        //!< critical-load table depth
    std::string critOut;           //!< crit report path (implies crit)
    std::string sample;            //!< sampled-simulation spec (empty = off)
};

Options g_options;

/** Parsed --fault-plan / GCL_FAULT_PLAN (validated in initBench). */
guard::FaultPlan g_faultPlan;

/** The machine resolved by initBench (compiled defaults when unset). */
sim::GpuConfig g_machineConfig;

/** Failed runs seen by this process, for finishBench()'s summary. */
std::vector<std::pair<std::string, SimFailure>> g_failures;

/**
 * Trace/export state living for the whole process. Touched only from the
 * main thread: traced runs write into their own spill files, which the
 * main thread splices in declaration order.
 */
struct ExportState
{
    std::ofstream traceStream;
    std::string traceTmp; //!< staging name; renamed over --trace-out
    std::unique_ptr<trace::ChromeTraceWriter> writer;
    int nextPid = 1;

    struct Record
    {
        std::string name;
        std::string category;
        std::string machine;
        bool verified = false;
        uint64_t fingerprint = 0;
        StatsSet stats;
        SimFailure failure;
    };
    std::vector<Record> records;
};

ExportState *g_export = nullptr;

bool
tracing()
{
    return g_export && g_export->writer;
}

/**
 * Disjoint per-run trace-id range. Chrome async slices pair by (cat, id)
 * across the whole file, so every run (= every pid) gets 2^40 ids of its
 * own; one run emits far fewer.
 */
uint64_t
traceIdBase(int pid)
{
    return static_cast<uint64_t>(pid) << 40;
}

/** Publish @p content under @p path via temp-file + rename (atomic). */
void
publishArtifact(const std::string &what, const std::string &path,
                const std::string &content)
{
    std::string error;
    if (!atomicWriteFile(path, content, &error))
        gcl_warn("cannot write ", what, " to '", path, "': ", error);
}

void
writeStatsJson(const std::string &path)
{
    std::ostringstream out;
    out << "{\n\"apps\": [";
    bool first = true;
    for (const auto &rec : g_export->records) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64, rec.fingerprint);
        out << (first ? "\n" : ",\n") << "{\"name\": "
            << trace::jsonQuote(rec.name) << ", \"category\": "
            << trace::jsonQuote(rec.category) << ", \"machine\": "
            << trace::jsonQuote(rec.machine) << ", \"verified\": "
            << (rec.verified ? "true" : "false")
            << ", \"fingerprint\": \"" << fp << "\"";
        if (rec.failure.failed) {
            out << ", \"failure\": {\"kind\": "
                << trace::jsonQuote(rec.failure.kind)
                << ", \"component\": "
                << trace::jsonQuote(rec.failure.component)
                << ", \"cycle\": " << rec.failure.cycle
                << ", \"message\": "
                << trace::jsonQuote(rec.failure.message);
            if (!rec.failure.detail.empty())
                out << ", \"detail\": "
                    << trace::jsonQuote(rec.failure.detail);
            out << "}";
        }
        out << ", \"stats\": ";
        trace::exportStatsJson(rec.stats, out);
        out << "}";
        first = false;
    }
    out << "\n]\n}\n";
    publishArtifact("stats JSON", path, out.str());
}

void
writeStatsCsv(const std::string &path)
{
    std::ostringstream out;
    out << "app,kind,key,bucket,value\n";
    for (const auto &rec : g_export->records) {
        // App names are identifiers today, but failure kinds/components
        // are free-form-ish strings; RFC 4180 quoting keeps the table
        // parseable no matter what lands in them.
        if (rec.failure.failed)
            out << trace::csvField(rec.name) << ",failure,"
                << trace::csvField(rec.failure.kind) << ','
                << trace::csvField(rec.failure.component) << ','
                << rec.failure.cycle << '\n';
        std::ostringstream rows;
        trace::exportStatsCsv(rec.stats, rows);
        std::istringstream lines(rows.str());
        std::string line;
        std::getline(lines, line); // per-set header, replaced above
        while (std::getline(lines, line))
            out << trace::csvField(rec.name) << ',' << line << '\n';
    }
    publishArtifact("stats CSV", path, out.str());
}

/**
 * Write the per-app crit reports to --crit-out, plus collapsed-stack lines
 * (one weighted stall path per line, flamegraph.pl compatible) to
 * "<crit-out>.collapsed". Apps whose runs carried no crit section (e.g. a
 * failed run) are skipped silently — the stats JSON still records them.
 */
void
writeCritReport(const std::string &path)
{
    std::ostringstream out;
    std::ostringstream collapsed;
    for (const auto &rec : g_export->records) {
        if (!rec.stats.has("crit.issue_width"))
            continue;
        crit::renderText(out, rec.name, rec.stats, g_options.critTopN);
        crit::appendCollapsed(collapsed, rec.name, rec.stats);
    }
    publishArtifact("crit report", path, out.str());
    publishArtifact("collapsed stacks", path + ".collapsed",
                    collapsed.str());
}

/** atexit hook: close the trace array, write the stats artifacts. */
void
finishExports()
{
    if (!g_export)
        return;
    if (g_export->writer) {
        g_export->writer->close();
        // The stream wrote to a staging name; publish it only now that
        // the JSON array is closed. A killed bench leaves the previous
        // complete trace (or nothing), never a truncated one.
        g_export->traceStream.close();
        std::error_code ec;
        std::filesystem::rename(g_export->traceTmp, g_options.traceOut,
                                ec);
        if (ec)
            gcl_warn("cannot publish trace '", g_options.traceOut,
                     "': ", ec.message());
        std::fprintf(stderr, "[bench] trace: %" PRIu64
                     " events -> %s\n",
                     g_export->writer->eventsWritten(),
                     g_options.traceOut.c_str());
    }
    if (!g_options.statsJson.empty())
        writeStatsJson(g_options.statsJson);
    if (!g_options.statsCsv.empty())
        writeStatsCsv(g_options.statsCsv);
    if (!g_options.critOut.empty())
        writeCritReport(g_options.critOut);
}

bool
cacheDisabled()
{
    if (g_options.fresh)
        return true;
    const char *env = std::getenv("GCL_BENCH_FRESH");
    return env && env[0] == '1';
}

/** A run's cache entry name: one per (app, dataset, config fingerprint). */
std::string
cacheKey(const std::string &name, const sim::GpuConfig &config)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s.v%u.%016llx.stats", name.c_str(),
                  kDatasetVersion,
                  static_cast<unsigned long long>(config.fingerprint()));
    return buf;
}

/**
 * Shared functional fast-forward prefix for sampled runs, keyed by the
 * machine-independent functional fingerprint: every machine of a sweep
 * maps to the same file, which is the whole point of the warm start. The
 * dataset version rides in the name, as in cachePath, so a prefix of a
 * stale dataset is simply never found. Atomic snapshot writes make
 * concurrent sweep jobs racing on the key publish complete identical
 * files — last writer wins.
 */
std::filesystem::path
ffPrefixPath(const std::string &name, const sim::GpuConfig &config)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s.v%u.ff.%016llx.snap", name.c_str(),
                  kDatasetVersion,
                  static_cast<unsigned long long>(
                      config.functionalFingerprint()));
    return cacheDir() / "snap" / buf;
}

/**
 * Point a sampled run at its shared functional prefix (a no-op for an
 * unsampled run): the first run of a sweep captures it, every later run
 * (any machine) warm-starts from it. Serial and parallel sweeps both call
 * this, so they write and read the same files.
 */
void
usePrefix(workloads::SimContext &ctx, const sim::GpuConfig &config)
{
    if (config.sample.empty())
        return;
    const std::filesystem::path path =
        ffPrefixPath(ctx.workload().name, config);
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    workloads::SnapOptions snap;
    snap.ffPrefixPath = path.string();
    snap.meta.emplace_back("dataset_version",
                           std::to_string(kDatasetVersion));
    ctx.setSnapOptions(std::move(snap));
}

/**
 * Load one cache entry. Any malformed or truncated file — e.g. left by a
 * pre-atomic-write bench that was killed mid-store — is simply a miss;
 * the run is re-simulated and the entry rewritten.
 */
bool
loadCached(const std::filesystem::path &path, AppResult &result)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string header;
    if (!std::getline(in, header))
        return false;
    std::istringstream hs(header);
    std::string tag;
    unsigned schema = 0;
    int verified = 0;
    // Pre-v2 headers ("gclbench <verified>") run out of tokens here and
    // land in the miss path, as intended.
    if (!(hs >> tag >> schema >> verified) || tag != "gclbench" ||
        schema != kCacheSchemaVersion)
        return false;
    std::stringstream body;
    body << in.rdbuf();
    if (!result.stats.deserialize(body.str()))
        return false;
    result.verified = verified != 0;
    return true;
}

/**
 * Store one cache entry atomically: write a uniquely-named temp file in
 * the cache directory, then rename() it over the final path. A killed
 * bench can never leave a truncated entry, and concurrent bench binaries
 * (or sweep jobs) racing on the same key each publish a complete file —
 * last writer wins with identical bytes.
 */
void
storeCached(const std::filesystem::path &path, const AppResult &result)
{
    // A failed run has no (complete) stats; caching it would poison every
    // later sweep with the failure's residue.
    if (result.failure.failed)
        return;

    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);

    std::ostringstream out;
    out << "gclbench " << kCacheSchemaVersion << ' '
        << (result.verified ? 1 : 0) << '\n';
    out << result.stats.serialize();
    std::string error;
    if (!atomicWriteFile(path.string(), out.str(), &error))
        gcl_warn("cannot publish cache entry '", path.string(), "': ",
                 error);
}

/** Remember a finished run for the end-of-process stats artifacts. */
void
recordResult(const AppResult &result, const sim::GpuConfig &config)
{
    if (!g_export ||
        (g_options.statsJson.empty() && g_options.statsCsv.empty() &&
         g_options.critOut.empty()))
        return;
    g_export->records.push_back({result.name, result.category,
                                 config.machineName, result.verified,
                                 config.fingerprint(), result.stats,
                                 result.failure});
}

/** Simulate one app in @p ctx and package the result (no cache access). */
AppResult
simulate(workloads::SimContext &ctx)
{
    AppResult result;
    result.name = ctx.workload().name;
    result.category = workloads::toString(ctx.workload().category);
    ctx.run();
    result.verified = ctx.verified();
    result.stats = ctx.stats();
    result.failure = ctx.failure();
    // One whole line per finished simulation (safe from worker threads):
    // how many unit-cycles per-unit sleep left unticked, a host-side
    // diagnostic that never enters the stats.
    if (!result.failure.failed && result.stats.has("cycles"))
        std::fprintf(stderr,
                     "[bench] %s: %.0f cycles, sim.dormant_cycles=%llu\n",
                     result.name.c_str(), result.stats.get("cycles"),
                     static_cast<unsigned long long>(ctx.dormantCycles()));
    return result;
}

/** A run the cancelled sweep never started (structured, not silent). */
AppResult
skippedResult(const workloads::Workload &workload)
{
    AppResult result;
    result.name = workload.name;
    result.category = workloads::toString(workload.category);
    result.skipped = true;
    result.failure.failed = true;
    result.failure.kind = "canceled";
    result.failure.component = "bench";
    result.failure.message = "skipped: sweep cancelled before this run";
    return result;
}

/** Note a finished run's failure (called on the publishing thread). */
void
noteFailure(const AppResult &result)
{
    if (result.failure.failed)
        g_failures.emplace_back(result.name, result.failure);
}

/** One word describing how a sweep run ended (the cancel summary). */
const char *
runStatus(const AppResult &result)
{
    if (result.skipped)
        return "skipped";
    return result.failure.failed ? "failed" : "completed";
}

/**
 * After a cancelled sweep: print the per-run outcome summary, so the user
 * sees at a glance which runs finished, failed or never started.
 */
void
summarizeSweep(const std::vector<AppResult> &results)
{
    if (!guard::cancelRequested())
        return;

    size_t completed = 0, skipped = 0, failed = 0;
    for (const AppResult &result : results) {
        if (result.skipped)
            ++skipped;
        else if (result.failure.failed)
            ++failed;
        else
            ++completed;
    }
    std::fprintf(stderr,
                 "[bench] sweep cancelled: %zu completed, %zu failed, "
                 "%zu skipped\n",
                 completed, failed, skipped);
    for (const AppResult &result : results)
        std::fprintf(stderr, "[bench]   %s: %s\n", result.name.c_str(),
                     runStatus(result));
}

/**
 * The config one app actually runs under: base + --sim-config overrides +
 * --max-cycles, plus the fault plan — but only for runs the plan targets.
 * A non-targeted sibling keeps the clean fingerprint, so its cache entry
 * and stats are byte-identical to a fault-free sweep.
 */
sim::GpuConfig
appConfig(const std::string &name, const sim::GpuConfig &base)
{
    sim::GpuConfig config = base;
    if (!g_options.simConfig.empty())
        config.applyOverrides(g_options.simConfig);
    if (g_options.maxCycles != 0)
        config.maxCycles = g_options.maxCycles;
    // The profiler changes stats content (crit.* keys), so this happens
    // before the fingerprint is ever taken: crit-on runs get their own
    // cache entries and never alias a crit-off sweep's.
    if (g_options.crit)
        config.crit = true;
    if (!g_options.faultPlan.empty() && g_faultPlan.appliesTo(name))
        config.faultPlan = g_options.faultPlan;
    // Sampling changes stats content (sample.* keys) and is fingerprinted
    // with the spec, so sampled runs get their own cache entries and never
    // alias a full-detail sweep's.
    if (!g_options.sample.empty())
        config.sample = g_options.sample;
    return config;
}

/** The Table I applications --apps selects, in Table I order. */
std::vector<std::string>
suiteApps()
{
    std::vector<std::string> apps;
    for (const auto &workload : workloads::all())
        if (g_options.apps.empty() ||
            std::find(g_options.apps.begin(), g_options.apps.end(),
                      workload.name) != g_options.apps.end())
            apps.push_back(workload.name);
    return apps;
}

} // namespace

std::vector<std::string>
initBench(int argc, char **argv, const std::string &usage)
{
    std::vector<std::string> positional;
    auto value = [](const char *arg, const char *flag) -> const char * {
        const size_t n = std::strlen(flag);
        if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = value(arg, "--trace-out")) {
            g_options.traceOut = v;
        } else if (const char *v = value(arg, "--timeline-interval")) {
            g_options.timelineInterval =
                parseCount("--timeline-interval", v, "cycle interval", true);
        } else if (const char *v = value(arg, "--stats-json")) {
            g_options.statsJson = v;
        } else if (const char *v = value(arg, "--stats-csv")) {
            g_options.statsCsv = v;
        } else if (const char *v = value(arg, "--apps")) {
            std::istringstream list(v);
            std::string app;
            while (std::getline(list, app, ','))
                if (!app.empty())
                    g_options.apps.push_back(app);
            // A typo must not silently shrink the suite: unknown names
            // are a usage error, reported with the valid vocabulary.
            for (const auto &name : g_options.apps)
                if (workloads::findByName(name) == nullptr)
                    gcl_fatal("--apps: unknown application '", name,
                              "' (known: ", workloads::knownNames(), ")");
        } else if (const char *v = value(arg, "--jobs")) {
            const auto n = static_cast<unsigned>(
                parseCount("--jobs", v, "job count", true,
                           std::numeric_limits<unsigned>::max()));
            g_options.jobs = n == 0 ? exec::hardwareThreads() : n;
        } else if (const char *v = value(arg, "--max-cycles")) {
            g_options.maxCycles =
                parseCount("--max-cycles", v, "cycle count", false);
        } else if (const char *v = value(arg, "--machine")) {
            g_options.machine = v;
        } else if (const char *v = value(arg, "--sim-config")) {
            g_options.simConfig = v;
        } else if (const char *v = value(arg, "--fault-plan")) {
            g_options.faultPlan = v;
        } else if (std::strcmp(arg, "--crit") == 0) {
            g_options.crit = true;
        } else if (const char *v = value(arg, "--crit-top-n")) {
            g_options.critTopN = static_cast<unsigned>(
                parseCount("--crit-top-n", v, "row count", false,
                           std::numeric_limits<unsigned>::max()));
        } else if (const char *v = value(arg, "--crit-out")) {
            g_options.critOut = v;
            g_options.crit = true;
        } else if (const char *v = value(arg, "--sample")) {
            g_options.sample = v;
        } else if (std::strcmp(arg, "--fresh") == 0) {
            g_options.fresh = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::fputs(usage.c_str(), stdout);
            std::printf(
                "  --trace-out=FILE         Chrome trace-event JSON "
                "(load in Perfetto)\n"
                "  --timeline-interval=N    sample occupancy counters "
                "every N cycles\n"
                "  --stats-json=FILE        finalized stats of every run, "
                "as JSON\n"
                "  --stats-csv=FILE         same, flat CSV "
                "(app,kind,key,bucket,value)\n"
                "  --apps=a,b,c             restrict the suite runs to "
                "these applications\n"
                "  --fresh                  ignore the on-disk run cache\n"
                "  --jobs=N                 simulate up to N runs "
                "concurrently (0 = #cores;\n"
                "                           default GCL_BENCH_JOBS, "
                "else 1)\n"
                "  --machine=NAME|PATH      machine description: a "
                "configs/ zoo name\n"
                "                           (e.g. c2050, hbm-sectored) or "
                "a .config file\n"
                "                           path (= GCL_MACHINE; default: "
                "compiled-in\n"
                "                           C2050)\n"
                "  --max-cycles=N           per-run cycle budget; an "
                "exceeding run is\n"
                "                           reported as a 'timeout' "
                "failure record\n"
                "                           (= GCL_MAX_CYCLES)\n"
                "  --sim-config=K=V,...     override simulator config "
                "fields by name\n"
                "                           (= GCL_SIM_CONFIG)\n"
                "  --fault-plan=SPEC        deterministic fault injection, "
                "e.g.\n"
                "                           'app=bpr;stop@20000' "
                "(= GCL_FAULT_PLAN;\n"
                "                           grammar in src/guard/fault.hh)"
                "\n"
                "  --crit                   criticality profiler: per-PC "
                "stall\n"
                "                           attribution + latency breakdown "
                "in the stats\n"
                "  --crit-top-n=N           critical-load table rows "
                "(default 10)\n"
                "  --crit-out=FILE          per-app crit report (implies "
                "--crit);\n"
                "                           FILE.collapsed gets "
                "flamegraph stacks\n"
                "  --sample=SPEC            sampled simulation "
                "(= GCL_SAMPLE): fast-forward\n"
                "                           outside the detailed windows "
                "and extrapolate\n"
                "                           (kernels:K1:K2 | ctas:S:L | "
                "every:N; grammar\n"
                "                           in src/sim/sample.hh)\n");
            std::exit(0);
        } else if (arg[0] != '-') {
            positional.push_back(arg);
        } else {
            gcl_fatal("unknown argument '", arg, "' (try --help)");
        }
    }

    // Environment fallbacks (flags win).
    if (g_options.maxCycles == 0)
        if (const char *env = std::getenv("GCL_MAX_CYCLES"))
            g_options.maxCycles =
                parseCount("GCL_MAX_CYCLES", env, "cycle count", false);
    if (g_options.machine.empty())
        if (const char *env = std::getenv("GCL_MACHINE"))
            g_options.machine = env;
    if (g_options.simConfig.empty())
        if (const char *env = std::getenv("GCL_SIM_CONFIG"))
            g_options.simConfig = env;
    if (g_options.faultPlan.empty())
        if (const char *env = std::getenv("GCL_FAULT_PLAN"))
            g_options.faultPlan = env;
    if (g_options.sample.empty())
        if (const char *env = std::getenv("GCL_SAMPLE"))
            g_options.sample = env;

    // Resolve the machine description once, eagerly: a typo'd name or
    // unparseable file is a usage error at startup. The source *path*
    // goes to stderr only — stdout artifacts carry the machine *name*, so
    // `--machine=configs/c2050.config` stays byte-identical to the
    // compiled-in defaults.
    if (!g_options.machine.empty()) {
        try {
            const std::string path =
                sim::MachineRegistry::resolvePath(g_options.machine);
            g_machineConfig = sim::loadMachineFile(path);
            std::fprintf(stderr, "[bench] machine: %s (%s)\n",
                         g_machineConfig.machineName.c_str(),
                         path.c_str());
        } catch (const SimError &error) {
            gcl_fatal("--machine: ", error.message());
        }
    }

    // Validate eagerly: a bad override or fault spec is a usage error at
    // startup, not a per-run failure half an hour into a sweep.
    if (!g_options.simConfig.empty()) {
        try {
            sim::GpuConfig{}.applyOverrides(g_options.simConfig);
        } catch (const SimError &error) {
            gcl_fatal("--sim-config: ", error.message());
        }
    }
    if (!g_options.faultPlan.empty()) {
        try {
            g_faultPlan = guard::FaultPlan::parse(g_options.faultPlan);
        } catch (const SimError &error) {
            gcl_fatal("--fault-plan: ", error.message());
        }
    }
    if (!g_options.sample.empty()) {
        try {
            sim::SamplePlan::parse(g_options.sample);
        } catch (const SimError &error) {
            gcl_fatal("--sample: ", error.message());
        }
    }

    // Ctrl-C / kill: request a cooperative stop. The cycle loop polls the
    // flag, so every in-flight run unwinds with a structured "canceled"
    // failure record. SA_RESETHAND keeps the second signal lethal: a
    // stuck bench can still be killed the old-fashioned way.
    struct sigaction sa = {};
    sa.sa_handler = [](int) { guard::requestCancel(); };
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    if (g_options.traceOut.empty() && g_options.statsJson.empty() &&
        g_options.statsCsv.empty() && g_options.critOut.empty())
        return positional;

    static ExportState state;
    g_export = &state;
    if (!g_options.traceOut.empty()) {
        // Stream into a staging name; finishExports renames it over
        // --trace-out once the JSON array is closed, so a killed bench
        // never leaves a truncated trace behind.
        state.traceTmp = g_options.traceOut + ".tmp";
        state.traceStream.open(state.traceTmp,
                               std::ios::out | std::ios::trunc);
        if (!state.traceStream)
            gcl_fatal("cannot open trace output '", state.traceTmp,
                      "'");
        state.writer =
            std::make_unique<trace::ChromeTraceWriter>(state.traceStream);
        // A trace without the occupancy timeline is half blind; default
        // to a sane sampling period unless the user chose one.
        if (g_options.timelineInterval == 0)
            g_options.timelineInterval = 1000;
    }
    std::atexit(finishExports);
    return positional;
}

sim::GpuConfig
defaultConfig()
{
    return g_machineConfig;
}

std::vector<Run>
suiteRuns(const sim::GpuConfig &config)
{
    std::vector<Run> runs;
    for (const std::string &app : suiteApps())
        runs.push_back({app, config});
    return runs;
}

const AppResult &
Results::at(const std::string &app, const sim::GpuConfig &config) const
{
    const std::string key = cacheKey(app, appConfig(app, config));
    const auto it = byKey_.find(key);
    if (it == byKey_.end())
        gcl_fatal("artifact reads run ", key, ", which it did not declare");
    return it->second;
}

std::vector<const AppResult *>
Results::suite(const sim::GpuConfig &config) const
{
    std::vector<const AppResult *> out;
    for (const std::string &app : suiteApps())
        out.push_back(&at(app, config));
    return out;
}

Results
runApps(const std::vector<Run> &runs)
{
    // 1) One slot per distinct cache key, in declaration order. Resolving
    //    the workloads here also forces the (lazily-built) registry before
    //    any worker thread can race on its initialization.
    struct Slot
    {
        const workloads::Workload *workload = nullptr;
        sim::GpuConfig config;
        std::string key;
        // When tracing: this run's pid, its spill file and the fragment
        // writer streaming into it (heap-allocated, so the writer's
        // reference to the stream survives the vector growing).
        int pid = 0;
        std::string spillPath;
        std::unique_ptr<std::ofstream> spill;
        std::unique_ptr<trace::ChromeTraceWriter> fragment;
    };
    std::vector<Slot> slots;
    std::set<std::string> declared;
    for (const Run &run : runs) {
        Slot slot;
        slot.workload = &workloads::byName(run.app);
        slot.config = appConfig(run.app, run.config);
        slot.key = cacheKey(run.app, slot.config);
        if (declared.insert(slot.key).second)
            slots.push_back(std::move(slot));
    }

    // 2) Load the cache hits inline. The rest are misses; when tracing,
    //    each gets a pid in declaration order and a fragment writer on its
    //    own spill file, so the merged trace does not depend on the job
    //    count and no run's events stay in memory.
    std::vector<AppResult> results(slots.size());
    std::vector<size_t> misses;
    for (size_t i = 0; i < slots.size(); ++i) {
        Slot &slot = slots[i];
        AppResult &result = results[i];
        result.name = slot.workload->name;
        result.category = workloads::toString(slot.workload->category);
        if (!tracing() && !cacheDisabled() &&
            loadCached(cacheDir() / slot.key, result)) {
            std::fprintf(stderr, "[bench] %s ...\n", result.name.c_str());
            continue;
        }
        misses.push_back(i);
        if (!tracing())
            continue;
        slot.pid = g_export->nextPid++;
        slot.spillPath = g_export->traceTmp + "." + std::to_string(slot.pid);
        slot.spill = std::make_unique<std::ofstream>(
            slot.spillPath, std::ios::out | std::ios::trunc);
        if (!*slot.spill)
            gcl_fatal("cannot open trace spill file '", slot.spillPath, "'");
        slot.fragment = std::make_unique<trace::ChromeTraceWriter>(
            *slot.spill, /*fragment=*/true);
        slot.fragment->beginProcess(slot.pid, result.name,
                                    slot.config.machineName);
    }

    // 3) Simulate the misses, inline and in order at one job.
    const unsigned jobs = exec::resolveJobs(g_options.jobs, "GCL_BENCH_JOBS");
    exec::parallelFor(jobs, misses.size(), [&](size_t j) {
        Slot &slot = slots[misses[j]];
        // A cancelled batch stops launching: queued runs become explicit
        // "skipped" records instead of burning cycles just to cancel
        // themselves a few thousand ticks in.
        if (guard::cancelRequested()) {
            results[misses[j]] = skippedResult(*slot.workload);
            return;
        }
        std::fprintf(stderr, "[bench] %s ...\n",
                     slot.workload->name.c_str());
        workloads::SimContext ctx(*slot.workload, slot.config);
        if (slot.fragment)
            ctx.enableTrace(g_options.timelineInterval,
                            slot.fragment->drain(), traceIdBase(slot.pid));
        usePrefix(ctx, slot.config);
        results[misses[j]] = simulate(ctx);
    });

    // 4) Publish, on the calling thread, in declaration order.
    for (size_t i : misses) {
        Slot &slot = slots[i];
        if (slot.fragment) {
            slot.fragment->close();
            slot.spill->close();
            std::ifstream spill(slot.spillPath);
            g_export->writer->appendFragment(
                spill, slot.fragment->eventsWritten());
            std::error_code ec;
            std::filesystem::remove(slot.spillPath, ec);
        }
        noteFailure(results[i]);
        storeCached(cacheDir() / slot.key, results[i]);
    }
    summarizeSweep(results);
    Results out;
    for (size_t i = 0; i < slots.size(); ++i) {
        recordResult(results[i], slots[i].config);
        out.byKey_.emplace(slots[i].key, std::move(results[i]));
    }
    return out;
}

void
printHeader(const std::string &title, const sim::GpuConfig &config,
            std::ostream &out)
{
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(config.fingerprint()));
    out << "== " << title << " ==\n"
        << "machine " << config.machineName << ", config fingerprint " << fp
        << '\n';
    if (!g_options.simConfig.empty())
        out << "sim-config overrides: " << g_options.simConfig << '\n';
    if (!g_options.faultPlan.empty())
        out << "fault plan: " << g_options.faultPlan << '\n';
    out << '\n';
    std::fprintf(stderr, "[bench] cache %s\n",
                 cacheDisabled() ? "disabled" : cacheDir().string().c_str());
}

int
finishBench()
{
    if (g_failures.empty())
        return 0;
    std::fprintf(stderr, "[bench] %zu run(s) failed:\n",
                 g_failures.size());
    for (const auto &[name, failure] : g_failures)
        std::fprintf(stderr, "[bench]   %s: [%s] %s@%llu: %s\n",
                     name.c_str(), failure.kind.c_str(),
                     failure.component.c_str(),
                     static_cast<unsigned long long>(failure.cycle),
                     failure.message.c_str());
    return 3;
}

} // namespace gcl::bench
