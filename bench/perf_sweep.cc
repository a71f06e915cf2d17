/**
 * @file
 * Simulator-throughput timer behind scripts/check.sh's speed gates.
 *
 * Simulates each --apps app fresh (never the run cache — we are timing
 * the simulator, not the disk) and writes a JSON snapshot of what
 * `tools/stats_diff` compares:
 *
 *   per_app   name, median_seconds, cycles_per_sec (simulated cycles /
 *             host seconds)
 *   total     cycles_per_sec, ns_per_cycle and peak_rss_kb of the whole
 *             process
 *
 * Runs are timed median-of-N (--repeat) to shave scheduler noise without
 * the optimism of best-of-N; the simulated cycle count of every run is
 * asserted identical across repetitions — a perf bench that silently
 * simulates different work would be comparing apples to oranges.
 *
 * --sample=SPEC times a *sampled* run (src/sim/sample.hh grammar):
 * functional fast-forward outside the spec's detailed windows. The
 * repetitions share one workloads::PrefixStore, as the runs of one
 * gcl_paper batch do: rep 0 captures the functional prefix and starts
 * cold, later reps start warm from it, so the median of three measures
 * the warm sweep-member cost. --repeat=1 reads a cold run.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/sample.hh"
#include "trace/json.hh"
#include "util/count.hh"
#include "util/logging.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::sim::GpuConfig;

struct AppPerf
{
    std::string name;
    uint64_t simCycles = 0;
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
writeJson(const std::string &path, const std::vector<AppPerf> &apps)
{
    using gcl::trace::jsonNumber;
    using gcl::trace::jsonQuote;
    uint64_t total_cycles = 0;
    double total_seconds = 0.0;
    for (const auto &app : apps) {
        total_cycles += app.simCycles;
        total_seconds += app.medianSeconds;
    }
    const double cycles = static_cast<double>(total_cycles);
    const double cps = total_seconds > 0 ? cycles / total_seconds : 0.0;
    const double ns_per_cycle =
        total_cycles > 0 ? total_seconds * 1e9 / cycles : 0.0;

    std::ofstream out(path);
    if (!out)
        gcl_fatal("cannot write '", path, "'");
    out << "{\n";
    out << "  \"per_app\": [\n";
    for (size_t i = 0; i < apps.size(); ++i) {
        const AppPerf &app = apps[i];
        const double app_cps = app.medianSeconds > 0
            ? static_cast<double>(app.simCycles) / app.medianSeconds
            : 0.0;
        out << "    {\"name\": " << jsonQuote(app.name)
            << ", \"median_seconds\": " << jsonNumber(app.medianSeconds)
            << ", \"cycles_per_sec\": " << jsonNumber(app_cps) << "}"
            << (i + 1 < apps.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"total\": {\"cycles_per_sec\": " << jsonNumber(cps)
        << ", \"ns_per_cycle\": " << jsonNumber(ns_per_cycle)
        << ", \"peak_rss_kb\": " << peakRssKb() << "}\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> apps;
    unsigned repeat = 3;
    std::string out_path = "BENCH_perf.json";
    bool crit = false;     // time with the criticality profiler enabled
    std::string sim_config; // K=V,... config overrides (A/B timing runs)
    std::string sample;     // sampled-simulation spec (empty = off)

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
            repeat = static_cast<unsigned>(
                gcl::parseCount("--repeat", v, "repetition count", false,
                                std::numeric_limits<unsigned>::max()));
        } else if (const char *v = value(arg, "--out")) {
            out_path = v;
        } else if (std::strcmp(arg, "--crit") == 0) {
            crit = true;
        } else if (const char *v = value(arg, "--sim-config")) {
            sim_config = v;
        } else if (const char *v = value(arg, "--sample")) {
            sample = v;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf("usage: %s --apps=a,b,c [--repeat=N] [--out=FILE]\n"
                        "          [--sim-config=K=V,...] [--crit] "
                        "[--sample=SPEC]\n"
                        "Times fresh simulations of the listed apps and "
                        "writes a throughput\nsnapshot (compare two with "
                        "tools/stats_diff).\n"
                        "--crit times the run with the criticality "
                        "profiler enabled.\n"
                        "--sim-config applies config overrides (e.g. "
                        "cycle_skipping=0) so a\nsingle flag A/B-times a "
                        "host-side optimization.\n"
                        "--sample=SPEC times a sampled run "
                        "(src/sim/sample.hh grammar); the\nrepetitions "
                        "share its functional prefix, so all but the "
                        "first start warm.\n",
                        argv[0]);
            return 0;
        } else {
            gcl_fatal("unknown argument '", arg, "' (try --help)");
        }
    }
    if (apps.empty())
        gcl_fatal("--apps is required (try --help)");
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
    std::vector<AppPerf> results;
    results.reserve(apps.size());

    std::printf("== perf_sweep: simulator throughput ==\n");
    if (crit)
        std::printf("crit profiler: enabled\n");
    if (!sample.empty())
        std::printf("sampled: %s\n", sample.c_str());
    std::printf("%-8s %12s %10s %14s\n", "app", "sim_cycles", "median_sec",
                "cycles/sec");

    gcl::workloads::PrefixStore prefixes;
    for (const auto &name : apps) {
        AppPerf perf;
        perf.name = name;
        const auto &workload = gcl::workloads::byName(name);
        for (unsigned rep = 0; rep < repeat; ++rep) {
            gcl::workloads::SimContext ctx(workload, config);
            ctx.setPrefixStore(prefixes);
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
            if (rep == 0) {
                perf.simCycles = cycles;
            } else {
                // The simulator is deterministic; a repeat that simulates
                // different work means the bench itself is broken.
                gcl_assert(cycles == perf.simCycles,
                           "non-deterministic cycle count for ", name);
            }
            perf.repSeconds.push_back(seconds);
        }
        perf.medianSeconds = medianOf(perf.repSeconds);
        std::printf("%-8s %12llu %10.3f %14.0f\n", perf.name.c_str(),
                    static_cast<unsigned long long>(perf.simCycles),
                    perf.medianSeconds,
                    static_cast<double>(perf.simCycles) /
                        perf.medianSeconds);
        results.push_back(perf);
    }

    uint64_t total_cycles = 0;
    double total_seconds = 0.0;
    for (const auto &app : results) {
        total_cycles += app.simCycles;
        total_seconds += app.medianSeconds;
    }
    std::printf("%-8s %12llu %10.3f %14.0f\n", "TOTAL",
                static_cast<unsigned long long>(total_cycles), total_seconds,
                static_cast<double>(total_cycles) / total_seconds);
    std::printf("peak RSS: %ld KB\n", peakRssKb());

    writeJson(out_path, results);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
