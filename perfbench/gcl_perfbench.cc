/**
 * @file
 * Driver binary of the repository benchmark (see perfbench/README.md).
 *
 * Runs one named workload as fresh simulations — never the run cache — and
 * prints one JSON line on stdout with what it measured from outside the
 * simulator: per-sweep wall times, each run's CPU-reference verdict and
 * stats digest, peak RSS, and how long set-up took from the entry of
 * main() (per-sweep CPU seconds beside the walls). perfbench/run.py
 * turns that into the benchmark's metrics.
 *
 * The untraced pass calls workloads::SimContext::run per app, through
 * exec::parallelFor (inline and in order when jobs == 1). The traced pass
 * makes the calls SimContext::run makes, in the same order — Gpu
 * construction, Workload::run, Gpu::finalizeStats — stamping a span around
 * each and at every Gpu boundary-hook callback, then times the layers a
 * sweep uses after the simulation: load classification, the run-cache
 * format, the stats JSON round trip and the crit report. Spans stay in
 * memory and are written to --spans-out when the pass ends.
 *
 * Usage:
 *   gcl_perfbench --workload NAME [--machine SPEC] [--apps a,b,...]
 *                 [--budget-s SECONDS] [--traced 0|1] [--spans-out PATH]
 *                 [--setup-only]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.hh"
#include "crit/report.hh"
#include "exec/scheduler.hh"
#include "guard/sim_error.hh"
#include "sim/gpu.hh"
#include "sim/machine.hh"
#include "trace/export.hh"
#include "trace/json.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using namespace gcl;

/** CLOCK_MONOTONIC in ns. */
int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process, all threads. */
double
cpuSeconds()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) * 1e-6;
}

/** One benchmark workload: which apps, how many at a time, which config. */
struct WorkloadSpec
{
    const char *name;
    std::vector<std::string> apps;   //!< empty = all 15, Table I order
    unsigned jobs;
    const char *overrides;           //!< GpuConfig::applyOverrides spec
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    // Why each exists is in perfbench/README.md. In short: the paper's
    // serial sweep (SM issue path bound); the same sweep two at a time
    // through gcl::exec (the only workload where exec works); and the
    // memory-bound, crit-on regime of scripts/check.sh's cycle-skip gate
    // (skip calendar, memory side, crit bookkeeping).
    static const std::vector<WorkloadSpec> specs = {
        {"suite-c2050", {}, 1, ""},
        {"suite-jobs2", {}, 2, ""},
        {"membound-crit800", {"spmv", "bfs", "mst", "ccl"}, 1,
         "dram_latency=800,crit=1"},
    };
    return specs;
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

/** What one app simulation produced, as the benchmark checks it. */
struct RunRecord
{
    std::string app;
    bool verified = false;
    std::string failure;   //!< empty = clean, else "kind: message"
    std::string digest;    //!< FNV-1a of StatsSet::serialize()
    double cycles = 0;
    double warpInsts = 0;
    double reqs = 0;
    double l1Useful = 0;   //!< hit + hit_reserved + miss
    double l1All = 0;      //!< every l1.outcome.*
    double blocks = 0;
    double launches = 0;
    uint64_t skippedCycles = 0;
    uint64_t skipEvents = 0;
    uint64_t dormantCycles = 0;
    uint64_t staticLoads = 0;   //!< classifier output, keeps it observable

    bool ok() const { return verified && failure.empty(); }

    /** Take the counts of @p stats; @p text is its serialize(). */
    void takeStats(const StatsSet &stats, const std::string &text)
    {
        digest = hex16(fnv1a(text));
        cycles = stats.get("cycles");
        warpInsts = stats.get("warp_insts");
        reqs = stats.get("reqs.issued");
        for (const char *o : {"hit", "hit_reserved", "miss"})
            l1Useful += stats.get(std::string("l1.outcome.") + o);
        l1All = l1Useful;
        for (const char *o : {"fail_tag", "fail_mshr", "fail_icnt"})
            l1All += stats.get(std::string("l1.outcome.") + o);
        blocks = stats.get("blocks.count");
        launches = stats.get("launches");
    }
};

std::string
failureText(const SimFailure &failure)
{
    return failure.kind + ": " + failure.message;
}

/** A traced interval; spans of one app share its name as their id. */
struct Span
{
    std::string id;
    std::string name;
    int parent;           //!< index into the same app's spans, -1 = root
    int64_t start;
    int64_t end;
    double value = 0;     //!< launch: Gpu::lastLaunchCycles(); classify: kernels
};

/**
 * One untraced sweep: a fresh SimContext per app, all run through
 * exec::parallelFor. Returns the wall seconds and sets @p cpu to the CPU
 * seconds it took; records go to @p out.
 */
double
untracedSweep(const std::vector<const workloads::Workload *> &apps,
              const sim::GpuConfig &config, unsigned jobs,
              std::vector<RunRecord> &out, double &cpu)
{
    const int64_t start = nowNs();
    const double cpu_start = cpuSeconds();
    std::vector<std::unique_ptr<workloads::SimContext>> contexts;
    for (const workloads::Workload *w : apps)
        contexts.push_back(std::make_unique<workloads::SimContext>(*w, config));
    exec::parallelFor(jobs, contexts.size(),
                      [&](size_t i) { contexts[i]->run(); });
    const double wall = static_cast<double>(nowNs() - start) * 1e-9;
    cpu = cpuSeconds() - cpu_start;

    out.clear();
    for (const auto &ctx : contexts) {
        RunRecord rec;
        rec.app = ctx->workload().name;
        rec.verified = ctx->verified();
        if (ctx->failed())
            rec.failure = failureText(ctx->failure());
        else
            rec.takeStats(ctx->stats(), ctx->stats().serialize());
        out.push_back(std::move(rec));
    }
    return wall;
}

/**
 * One traced app: the SimContext::run call sequence with a span around
 * each call and at every kernel boundary, then the post-run layers.
 */
std::vector<Span>
tracedApp(const workloads::Workload &workload, const sim::GpuConfig &config,
          int64_t sweep_start, RunRecord &rec)
{
    std::vector<Span> spans;
    const std::string &id = workload.name;
    const int64_t start = nowNs();
    spans.push_back({id, "app", -1, sweep_start, 0});
    spans.push_back({id, "queue_wait", 0, sweep_start, start});
    auto close = [&](const char *name, int64_t from, double value = 0) {
        const int64_t to = nowNs();
        spans.push_back({id, name, 0, from, to, value});
        return to;
    };

    rec.app = id;
    LogTagScope tag(id);
    // (time, Gpu::lastLaunchCycles()) at every boundary: k = 0 before the
    // first launch, k = n after the n-th retires.
    std::vector<std::pair<int64_t, uint64_t>> bounds;
    StatsSet stats;
    int64_t run_end = 0;
    try {
        sim::Gpu gpu(config);
        gpu.setBoundaryHook([&](uint64_t) {
            bounds.emplace_back(nowNs(), gpu.lastLaunchCycles());
        });
        rec.verified = workload.run(gpu);
        run_end = nowNs();
        gpu.finalizeStats();
        close("finalize", run_end);
        stats = gpu.stats().set();
        rec.skippedCycles = gpu.skippedCycles();
        rec.skipEvents = gpu.skipEvents();
        rec.dormantCycles = gpu.dormantCycles();
    } catch (const SimError &error) {
        rec.verified = false;
        rec.failure = failureText(SimFailure::fromError(error));
        spans[0].end = nowNs();
        return spans;
    }

    const int64_t first = bounds.empty() ? run_end : bounds.front().first;
    const int64_t last = bounds.empty() ? run_end : bounds.back().first;
    spans.push_back({id, "prep", 0, start, first});
    for (size_t k = 1; k < bounds.size(); ++k)
        spans.push_back({id, "launch", 0, bounds[k - 1].first,
                         bounds[k].first,
                         static_cast<double>(bounds[k].second)});
    spans.push_back({id, "verify", 0, last, run_end});

    // Post-run layers: each span times exactly one layer's call.
    const std::vector<ptx::Kernel> kernels = workload.kernels();
    int64_t t = nowNs();
    for (const ptx::Kernel &kernel : kernels)
        rec.staticLoads += core::LoadClassifier(kernel).globalLoads().size();
    t = close("classify", t, static_cast<double>(kernels.size()));

    const std::string text = stats.serialize();
    t = close("serialize", t);
    StatsSet reread;
    const bool reread_ok = reread.deserialize(text);
    t = close("deserialize", t);

    std::ostringstream json_out;
    trace::exportStatsJson(stats, json_out);
    const std::string json = json_out.str();
    t = close("export_json", t);
    StatsSet imported;
    std::string error;
    const bool imported_ok = trace::importStatsJson(json, imported, &error);
    t = close("import_json", t);

    std::ostringstream report;
    crit::renderText(report, id, stats, 10);
    crit::appendCollapsed(report, id, stats);
    close("crit_report", t);

    rec.takeStats(stats, text);
    if (!reread_ok)
        rec.failure = "benchmark: StatsSet::deserialize rejected serialize()";
    else if (!imported_ok)
        rec.failure = "benchmark: importStatsJson: " + error;
    else if (report.str().empty())
        rec.failure = "benchmark: empty crit report";
    spans[0].end = nowNs();
    return spans;
}

void
writeRecord(std::ostream &out, const RunRecord &rec)
{
    out << "{\"app\":" << trace::jsonQuote(rec.app)
        << ",\"ok\":" << (rec.ok() ? "true" : "false")
        << ",\"verified\":" << (rec.verified ? "true" : "false")
        << ",\"failure\":" << trace::jsonQuote(rec.failure)
        << ",\"digest\":" << trace::jsonQuote(rec.digest)
        << ",\"cycles\":" << trace::jsonNumber(rec.cycles)
        << ",\"warp_insts\":" << trace::jsonNumber(rec.warpInsts)
        << ",\"reqs\":" << trace::jsonNumber(rec.reqs)
        << ",\"l1_useful\":" << trace::jsonNumber(rec.l1Useful)
        << ",\"l1_all\":" << trace::jsonNumber(rec.l1All)
        << ",\"blocks\":" << trace::jsonNumber(rec.blocks)
        << ",\"launches\":" << trace::jsonNumber(rec.launches)
        << ",\"skipped_cycles\":" << rec.skippedCycles
        << ",\"skip_events\":" << rec.skipEvents
        << ",\"dormant_cycles\":" << rec.dormantCycles
        << ",\"static_loads\":" << rec.staticLoads << "}";
}

void
writeRecords(std::ostream &out, const std::vector<RunRecord> &records)
{
    out << "[";
    for (size_t i = 0; i < records.size(); ++i) {
        if (i)
            out << ",";
        writeRecord(out, records[i]);
    }
    out << "]";
}

bool
writeSpans(const std::string &path, int64_t origin,
           const std::vector<std::vector<Span>> &per_app)
{
    std::ofstream out(path);
    out << "{\"spans\":[\n";
    bool first = true;
    for (const std::vector<Span> &spans : per_app)
        for (const Span &s : spans) {
            out << (first ? "" : ",\n") << "{\"id\":" << trace::jsonQuote(s.id)
                << ",\"name\":" << trace::jsonQuote(s.name)
                << ",\"parent\":" << s.parent
                << ",\"start_ns\":" << (s.start - origin)
                << ",\"end_ns\":" << (s.end - origin)
                << ",\"value\":" << trace::jsonNumber(s.value) << "}";
            first = false;
        }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "gcl_perfbench: %s\n"
                 "usage: gcl_perfbench --workload NAME [--machine SPEC] "
                 "[--apps a,b,...] [--budget-s SECONDS] [--traced 0|1] "
                 "[--spans-out PATH] [--setup-only]\n",
                 why.c_str());
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

} // namespace

int
main(int argc, char **argv)
{
    const int64_t main_entry = nowNs();
    std::string workload_name, machine, apps_arg, spans_out;
    double budget_s = 0;
    bool traced = false, setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            workload_name = value();
        else if (arg == "--machine")
            machine = value();
        else if (arg == "--apps")
            apps_arg = value();
        else if (arg == "--budget-s")
            budget_s = std::atof(value().c_str());
        else if (arg == "--traced")
            traced = value() == "1";
        else if (arg == "--spans-out")
            spans_out = value();
        else if (arg == "--setup-only")
            setup_only = true;
        else
            usage("unknown argument '" + arg + "'");
    }

    // ---- Set-up: everything before the first SimContext::run ----
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workloadSpecs())
        if (workload_name == s.name)
            spec = &s;
    if (!spec)
        usage("unknown workload '" + workload_name +
              "' (known: suite-c2050, suite-jobs2, membound-crit800)");
    if (traced && spans_out.empty())
        usage("--traced 1 needs --spans-out");

    workloads::all();   // build the registry before any worker thread
    sim::GpuConfig config;
    try {
        config = sim::MachineRegistry::resolve(machine);
        config.applyOverrides(spec->overrides);
    } catch (const SimError &error) {
        std::fprintf(stderr, "gcl_perfbench: %s\n", error.what());
        return 2;
    }
    const std::string fingerprint = hex16(config.fingerprint());
    std::vector<const workloads::Workload *> apps;
    const std::vector<std::string> names =
        apps_arg.empty() ? spec->apps : splitList(apps_arg);
    if (names.empty()) {
        for (const workloads::Workload &w : workloads::all())
            apps.push_back(&w);
    } else {
        for (const workloads::Workload &w : workloads::all())
            if (std::find(names.begin(), names.end(), w.name) != names.end())
                apps.push_back(&w);
        if (apps.size() != names.size())
            usage("unknown app in '" + apps_arg +
                  "' (known: " + workloads::knownNames() + ")");
    }
    const workloads::Workload *warmup = workloads::findByName("dwt");
    const int64_t setup_done = nowNs();

    std::ostringstream out;
    out << "{\"workload\":" << trace::jsonQuote(spec->name)
        << ",\"machine\":" << trace::jsonQuote(config.machineName)
        << ",\"fingerprint\":\"" << fingerprint << "\""
        << ",\"jobs\":" << spec->jobs
        << ",\"units\":" << (config.numSms + config.numPartitions)
        << ",\"build_type\":\"" << GCL_PERFBENCH_BUILD_TYPE << "\""
        << ",\"setup_ns\":" << (setup_done - main_entry);
    if (setup_only) {
        std::printf("%s}\n", out.str().c_str());
        return 0;
    }

    // Untimed warm-up on this workload's config: faults in code and
    // allocator pages before the first timed sweep.
    workloads::SimContext warm(*warmup, config);
    warm.run();
    RunRecord warm_rec;
    warm_rec.app = warmup->name;
    warm_rec.verified = warm.verified();
    if (warm.failed())
        warm_rec.failure = failureText(warm.failure());
    else
        warm_rec.takeStats(warm.stats(), warm.stats().serialize());
    out << ",\"warmup\":";
    writeRecord(out, warm_rec);

    // ---- Untraced sweeps for the budget ----
    // Start another sweep only when the longest so far still fits, leaving
    // room for the traced sweep when there is one; always run at least one.
    out << ",\"sweeps\":[";
    std::vector<RunRecord> records;
    double longest = 0;
    const int64_t loop_start = nowNs();
    for (int n = 0; n < 1000; ++n) {
        double cpu = 0;
        const double wall =
            untracedSweep(apps, config, spec->jobs, records, cpu);
        longest = std::max(longest, wall);
        out << (n ? "," : "") << "{\"wall_s\":" << trace::jsonNumber(wall)
            << ",\"cpu_s\":" << trace::jsonNumber(cpu) << ",\"runs\":";
        writeRecords(out, records);
        out << "}";
        const double elapsed =
            static_cast<double>(nowNs() - loop_start) * 1e-9;
        if (elapsed + longest * (traced ? 2 : 1) > budget_s)
            break;
    }
    out << "]";

    // ---- Traced sweep ----
    if (traced) {
        std::vector<std::vector<Span>> spans(apps.size());
        std::vector<RunRecord> traced_recs(apps.size());
        const int64_t start = nowNs();
        exec::parallelFor(spec->jobs, apps.size(), [&](size_t i) {
            spans[i] = tracedApp(*apps[i], config, start, traced_recs[i]);
        });
        const int64_t end = nowNs();
        if (!writeSpans(spans_out, start, spans)) {
            std::fprintf(stderr, "gcl_perfbench: cannot write '%s'\n",
                         spans_out.c_str());
            return 1;
        }
        out << ",\"traced\":{\"wall_s\":"
            << trace::jsonNumber(static_cast<double>(end - start) * 1e-9)
            << ",\"runs\":";
        writeRecords(out, traced_recs);
        out << "}";
    }

    struct rusage usage_self {};
    getrusage(RUSAGE_SELF, &usage_self);
    out << ",\"peak_rss_kb\":" << usage_self.ru_maxrss << "}";
    std::printf("%s\n", out.str().c_str());
    return 0;
}
