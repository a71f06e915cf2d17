/**
 * @file
 * Simulator-throughput microbench: how fast does the simulator itself run?
 *
 * Every figure in the paper is produced by replaying the full memory
 * system cycle by cycle, so host-side throughput (simulated cycles per
 * wall-clock second) is the single lever on how many configs a sweep can
 * cover. This bench pins a fixed subset of the Table I suite, simulates
 * each app fresh (never the run cache — we are timing the simulator, not
 * the disk), and emits a BENCH_perf.json snapshot:
 *
 *   cycles_per_sec   simulated cycles / host seconds (higher is better)
 *   ns_per_cycle     host nanoseconds per simulated cycle (lower is better)
 *   peak_rss_kb      peak resident set of the whole process
 *
 * `tools/perf_diff old.json new.json` compares two snapshots and fails on
 * a regression; `scripts/bench_perf.sh` wires both against the committed
 * baseline in bench/baselines/ so every perf PR leaves a trajectory.
 *
 * Runs are timed median-of-N (--repeat) to shave scheduler noise without
 * the optimism of best-of-N; the simulated cycle count of every run is
 * asserted identical across repetitions — a perf bench that silently
 * simulates different work would be comparing apples to oranges.
 *
 * --sample=SPEC times a *sampled* run (src/sim/sample.hh grammar):
 * functional fast-forward outside the spec's detailed windows. With
 * --ff-prefix-dir=DIR the repetitions share the functional prefix
 * snapshot exactly like a --machine sweep does — the first rep captures
 * it, later reps warm-start from it, so the median measures the steady
 * sweep-member cost rather than the one-off prefix build. check.sh uses
 * this pair to hold sampled mode to its >=10x speedup contract.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/sample.hh"
#include "util/logging.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::sim::GpuConfig;

/**
 * Pinned subset: one cheap and one expensive app per Table I category so
 * the number tracks coalescer/L1 pressure (linear), high turnaround
 * volume (image) and non-deterministic request storms (graph) at once.
 * Keep this list stable — changing it invalidates every baseline.
 */
const char *kPinnedApps[] = {"gaus", "2mm", "bpr", "srad", "bfs", "spmv"};

struct AppPerf
{
    std::string name;
    uint64_t simCycles = 0;
    uint64_t warpInsts = 0;
    uint64_t dormantCycles = 0;   //!< unit-cycles asleep
    double medianSeconds = 0.0;
    std::vector<double> repSeconds; //!< one entry per --repeat run
};

/** Median of @p v (average of the middle pair for even sizes). */
double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

long
peakRssKb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;  // KB on Linux
}

void
writeJson(const std::string &path, const std::string &label,
          const std::vector<AppPerf> &apps, unsigned repeat)
{
    uint64_t total_cycles = 0, total_insts = 0;
    double total_seconds = 0.0;
    for (const auto &app : apps) {
        total_cycles += app.simCycles;
        total_insts += app.warpInsts;
        total_seconds += app.medianSeconds;
    }
    const double cps =
        total_seconds > 0 ? static_cast<double>(total_cycles) / total_seconds
                          : 0.0;
    const double ns_per_cycle =
        total_cycles > 0 ? total_seconds * 1e9 /
                               static_cast<double>(total_cycles)
                         : 0.0;

    std::ofstream out(path);
    if (!out)
        gcl_fatal("cannot write '", path, "'");
    char buf[256];
    out << "{\n";
    out << "  \"bench\": \"perf_sweep\",\n";
    out << "  \"label\": \"" << label << "\",\n";
    out << "  \"repeat\": " << repeat << ",\n";
    out << "  \"per_app\": [\n";
    for (size_t i = 0; i < apps.size(); ++i) {
        const AppPerf &app = apps[i];
        const double app_cps = app.medianSeconds > 0
            ? static_cast<double>(app.simCycles) / app.medianSeconds
            : 0.0;
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"sim_cycles\": %llu, "
                      "\"warp_insts\": %llu, \"dormant_cycles\": %llu, "
                      "\"median_seconds\": %.6f, "
                      "\"cycles_per_sec\": %.0f}%s\n",
                      app.name.c_str(),
                      static_cast<unsigned long long>(app.simCycles),
                      static_cast<unsigned long long>(app.warpInsts),
                      static_cast<unsigned long long>(app.dormantCycles),
                      app.medianSeconds, app_cps,
                      i + 1 < apps.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"total\": {\"sim_cycles\": %llu, \"seconds\": %.6f, "
                  "\"cycles_per_sec\": %.0f, \"ns_per_cycle\": %.3f, "
                  "\"peak_rss_kb\": %ld}\n",
                  static_cast<unsigned long long>(total_cycles),
                  total_seconds, cps, ns_per_cycle, peakRssKb());
    out << buf;
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> apps;
    unsigned repeat = 3;
    std::string out_path = "BENCH_perf.json";
    std::string label = "perf_sweep";
    bool crit = false;     // time with the criticality profiler enabled
    std::string sim_config; // K=V,... config overrides (A/B timing runs)
    std::string sample;     // sampled-simulation spec (empty = off)
    std::string ff_prefix_dir; // shared functional-prefix snapshot dir

    auto value = [](const char *arg, const char *flag) -> const char * {
        const size_t n = std::strlen(flag);
        if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = value(arg, "--apps")) {
            std::istringstream list(v);
            std::string app;
            while (std::getline(list, app, ','))
                if (!app.empty())
                    apps.push_back(app);
        } else if (const char *v = value(arg, "--repeat")) {
            repeat = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
            if (repeat == 0)
                gcl_fatal("--repeat must be positive");
        } else if (const char *v = value(arg, "--out")) {
            out_path = v;
        } else if (const char *v = value(arg, "--label")) {
            label = v;
        } else if (std::strcmp(arg, "--crit") == 0) {
            crit = true;
        } else if (const char *v = value(arg, "--sim-config")) {
            sim_config = v;
        } else if (const char *v = value(arg, "--sample")) {
            sample = v;
        } else if (const char *v = value(arg, "--ff-prefix-dir")) {
            ff_prefix_dir = v;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf("usage: %s [--apps=a,b,c] [--repeat=N] "
                        "[--out=FILE] [--label=STR]\n"
                        "          [--sim-config=K=V,...] [--crit]\n"
                        "Times fresh simulations of the pinned app subset "
                        "and writes a\nBENCH_perf.json throughput snapshot "
                        "(compare with tools/perf_diff).\n"
                        "--crit times the run with the criticality "
                        "profiler enabled,\nto measure its overhead "
                        "against a plain snapshot.\n"
                        "--sim-config applies config overrides (e.g. "
                        "cycle_skipping=0) so a\nsingle flag A/B-times a "
                        "host-side optimization.\n"
                        "--sample=SPEC times a sampled run "
                        "(src/sim/sample.hh grammar);\n--ff-prefix-dir=DIR "
                        "shares the functional fast-forward prefix\n"
                        "snapshot across repetitions, like a --machine "
                        "sweep would.\n",
                        argv[0]);
            return 0;
        } else {
            gcl_fatal("unknown argument '", arg, "' (try --help)");
        }
    }
    if (apps.empty())
        apps.assign(std::begin(kPinnedApps), std::end(kPinnedApps));
    for (const auto &name : apps)
        if (gcl::workloads::findByName(name) == nullptr)
            gcl_fatal("--apps: unknown application '", name,
                      "' (known: ", gcl::workloads::knownNames(), ")");

    GpuConfig config{};
    if (!sim_config.empty()) {
        try {
            config.applyOverrides(sim_config);
        } catch (const gcl::SimError &error) {
            gcl_fatal("--sim-config: ", error.message());
        }
    }
    config.crit = crit;
    if (!sample.empty()) {
        try {
            gcl::sim::SamplePlan::parse(sample);  // validate eagerly
        } catch (const gcl::SimError &error) {
            gcl_fatal("--sample: ", error.message());
        }
        config.sample = sample;
    }
    if (!ff_prefix_dir.empty()) {
        if (sample.empty())
            gcl_fatal("--ff-prefix-dir requires --sample");
        std::error_code ec;
        std::filesystem::create_directories(ff_prefix_dir, ec);
        if (ec)
            gcl_fatal("--ff-prefix-dir: cannot create '", ff_prefix_dir,
                      "': ", ec.message());
    }
    std::vector<AppPerf> results;
    results.reserve(apps.size());

    std::printf("== perf_sweep: simulator throughput ==\n");
    if (crit)
        std::printf("crit profiler: enabled (overhead measurement)\n");
    if (!sample.empty())
        std::printf("sampled: %s%s\n", sample.c_str(),
                    ff_prefix_dir.empty() ? ""
                                          : " (shared functional prefix)");
    std::printf("%-8s %12s %12s %12s %10s %14s\n", "app",
                "sim_cycles", "warp_insts", "dormant",
                "median_sec", "cycles/sec");

    for (const auto &name : apps) {
        AppPerf perf;
        perf.name = name;
        const auto &workload = gcl::workloads::byName(name);
        for (unsigned rep = 0; rep < repeat; ++rep) {
            gcl::workloads::SimContext ctx(workload, config);
            if (!ff_prefix_dir.empty()) {
                // Same key as the bench runner: one prefix file per
                // functional fingerprint, so rep 0 captures it and every
                // later rep warm-starts — the sweep-member steady state.
                char key[64];
                std::snprintf(key, sizeof(key), "%s.ff.%016llx.snap",
                              name.c_str(),
                              static_cast<unsigned long long>(
                                  config.functionalFingerprint()));
                gcl::workloads::SnapOptions snap;
                snap.ffPrefixPath =
                    (std::filesystem::path(ff_prefix_dir) / key).string();
                ctx.setSnapOptions(std::move(snap));
            }
            const double t0 = now_seconds();
            ctx.run();
            const double seconds = now_seconds() - t0;
            if (ctx.failed())
                gcl_fatal("perf_sweep: run of '", name, "' failed: ",
                          ctx.failure().message);
            if (!ctx.verified())
                gcl_fatal("perf_sweep: '", name,
                          "' failed its reference check");
            const auto cycles =
                static_cast<uint64_t>(ctx.stats().get("cycles"));
            const auto insts =
                static_cast<uint64_t>(ctx.stats().get("warp_insts"));
            if (rep == 0) {
                perf.simCycles = cycles;
                perf.warpInsts = insts;
                perf.dormantCycles = ctx.dormantCycles();
            } else {
                // The simulator is deterministic; a repeat that simulates
                // different work means the bench itself is broken.
                gcl_assert(cycles == perf.simCycles,
                           "non-deterministic cycle count for ", name);
            }
            perf.repSeconds.push_back(seconds);
        }
        perf.medianSeconds = medianOf(perf.repSeconds);
        std::printf("%-8s %12llu %12llu %12llu %10.3f %14.0f\n",
                    perf.name.c_str(),
                    static_cast<unsigned long long>(perf.simCycles),
                    static_cast<unsigned long long>(perf.warpInsts),
                    static_cast<unsigned long long>(perf.dormantCycles),
                    perf.medianSeconds,
                    static_cast<double>(perf.simCycles) /
                        perf.medianSeconds);
        results.push_back(perf);
    }

    uint64_t total_cycles = 0, total_dormant = 0;
    double total_seconds = 0.0;
    for (const auto &app : results) {
        total_cycles += app.simCycles;
        total_dormant += app.dormantCycles;
        total_seconds += app.medianSeconds;
    }
    std::printf("%-8s %12llu %12s %12llu %10.3f %14.0f\n", "TOTAL",
                static_cast<unsigned long long>(total_cycles), "",
                static_cast<unsigned long long>(total_dormant),
                total_seconds,
                static_cast<double>(total_cycles) / total_seconds);
    std::printf("peak RSS: %ld KB\n", peakRssKb());

    writeJson(out_path, label, results, repeat);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
