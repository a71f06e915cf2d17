/**
 * @file
 * The gates of scripts/check.sh that compare two runs: a sampled run
 * against its full-detail run, and one perf_sweep snapshot against
 * another.
 *
 *   stats_diff BASE CUR [--miss-tol=F] [--min-speedup=F]
 *              [--expect-speedup=APP:F]...
 *
 * Both files are parsed with trace::parseJson and compared over the apps
 * present in both. They are two --stats-json files or two
 * bench/perf_sweep snapshots.
 *
 * Two --stats-json files: BASE holds full-detail runs, CUR sampled ones.
 * Per app, both runs must be verified, BASE must carry no sample.* key,
 * CUR's sample.est.cycles must be within 5% of BASE's cycles, and each
 * level's miss rate, (miss.det + miss.nondet) / (access.det +
 * access.nondet) for l1 and l2, must differ by at most --miss-tol
 * (default 0.05: 5 percentage points).
 *
 * Two snapshots with --min-speedup=F: per app, BASE's median seconds over
 * CUR's must be at least F (a sampled run against its full run, whose
 * cycles/sec do not compare). Without it: CUR's per-app and total
 * cycles_per_sec must be at least 0.90x BASE's and its peak RSS at most
 * 1.25x, and each --expect-speedup app's cycles_per_sec must be at least
 * F times BASE's.
 *
 * Exits 1 when a gate fails, 2 on a usage error or an input that is not
 * such a file (truncated, malformed, or of neither kind).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace/export.hh"
#include "trace/json.hh"
#include "util/stats.hh"

namespace
{

using gcl::StatsSet;
using gcl::trace::JsonValue;
using gcl::trace::StatsRecord;

constexpr double kCyclesTol = 0.05;     //!< sampled cycles estimate
constexpr double kMissTol = 0.05;       //!< default --miss-tol
constexpr double kThroughputTol = 0.10; //!< per-app and total cycles/sec
constexpr double kRssTol = 0.25;        //!< peak RSS growth

[[noreturn]] void
inputError(const std::string &msg)
{
    std::fprintf(stderr, "stats_diff: %s\n", msg.c_str());
    std::exit(2);
}

JsonValue
load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        inputError("cannot read '" + path + "'");
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue root;
    std::string error;
    if (!gcl::trace::parseJson(buf.str(), root, &error))
        inputError(path + ": " + error);
    return root;
}

/** A positive finite number from @p text, or an input error. */
double
parsePositive(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0)
        inputError(flag + "=" + text + " is not a positive number");
    return v;
}

// ---------------------------------------------------------------------------
// Sampled accuracy: two --stats-json files.

double
missRate(const StatsSet &stats, const std::string &level)
{
    const double access =
        stats.get(level + ".access.det") + stats.get(level + ".access.nondet");
    const double miss =
        stats.get(level + ".miss.det") + stats.get(level + ".miss.nondet");
    return access > 0 ? miss / access : 0.0;
}

bool
hasSampleKey(const StatsSet &stats)
{
    auto any = [](const auto &entries) {
        const auto it = entries.lower_bound("sample.");
        return it != entries.end() && it->first.rfind("sample.", 0) == 0;
    };
    return any(stats.scalars()) || any(stats.hists());
}

std::vector<StatsRecord>
readRecords(const std::string &path, const JsonValue &root)
{
    std::vector<StatsRecord> records;
    std::string error;
    if (!gcl::trace::importStatsFile(root, records, &error))
        inputError(path + ": " + error);
    return records;
}

int
diffAccuracy(const std::vector<StatsRecord> &base,
             const std::vector<StatsRecord> &cur, double miss_tol)
{
    int failures = 0;
    size_t compared = 0;
    for (const StatsRecord &full : base) {
        const StatsRecord *sampled = nullptr;
        for (const StatsRecord &rec : cur)
            if (rec.name == full.name)
                sampled = &rec;
        if (!sampled)
            continue;
        ++compared;
        const char *app = full.name.c_str();

        if (!full.verified || !sampled->verified) {
            std::printf("stats_diff: %s: NOT VERIFIED (full=%d sampled=%d)\n",
                        app, full.verified, sampled->verified);
            ++failures;
        }
        if (hasSampleKey(full.stats)) {
            std::printf("stats_diff: %s: sample.* keys in the full run\n",
                        app);
            ++failures;
        }
        const double full_cycles = full.stats.get("cycles");
        if (full_cycles <= 0 || !sampled->stats.has("sample.est.cycles")) {
            std::printf("stats_diff: %s: missing cycles (full) or "
                        "sample.est.cycles (sampled)\n",
                        app);
            ++failures;
        } else {
            const double est_cycles = sampled->stats.get("sample.est.cycles");
            const double err = est_cycles / full_cycles - 1.0;
            const bool bad = std::fabs(err) > kCyclesTol;
            std::printf("%-6s cycles    %12.0f -> est %12.0f  %+7.2f%% "
                        "(tol %.1f%%)%s\n",
                        app, full_cycles, est_cycles, err * 100.0,
                        kCyclesTol * 100.0, bad ? "  << FAIL" : "");
            failures += bad;
        }
        for (const char *level : {"l1", "l2"}) {
            const double full_rate = missRate(full.stats, level);
            const double est_rate = missRate(sampled->stats, level);
            const double diff = est_rate - full_rate;
            const bool bad = std::fabs(diff) > miss_tol;
            std::printf("%-6s %s miss   %11.2f%% -> %14.2f%%  %+6.2fpp "
                        "(tol %.1fpp)%s\n",
                        app, level, full_rate * 100.0, est_rate * 100.0,
                        diff * 100.0, miss_tol * 100.0,
                        bad ? "  << FAIL" : "");
            failures += bad;
        }
    }
    if (compared == 0)
        inputError("no app is in both files");
    return failures;
}

// ---------------------------------------------------------------------------
// Speed: two perf_sweep snapshots.

struct AppPerf
{
    double cyclesPerSec = 0.0;
    double medianSeconds = 0.0;
};

struct Snapshot
{
    std::map<std::string, AppPerf> apps;
    double totalCps = 0.0;
    double nsPerCycle = 0.0;
    double peakRssKb = 0.0;
};

Snapshot
readSnapshot(const std::string &path, const JsonValue &root)
{
    auto number = [&](const JsonValue &obj, const char *key,
                      const std::string &where) {
        if (!obj[key].isNumber())
            inputError(path + ": " + where + " has no number \"" + key +
                       "\"");
        return obj[key].number;
    };
    Snapshot snap;
    for (const JsonValue &app : root["per_app"].array) {
        if (!app["name"].isString())
            inputError(path + ": per_app entry without a name");
        const std::string where = "app '" + app["name"].string + "'";
        AppPerf &perf = snap.apps[app["name"].string];
        perf.cyclesPerSec = number(app, "cycles_per_sec", where);
        perf.medianSeconds = number(app, "median_seconds", where);
    }
    const JsonValue &total = root["total"];
    snap.totalCps = number(total, "cycles_per_sec", "\"total\"");
    snap.nsPerCycle = number(total, "ns_per_cycle", "\"total\"");
    snap.peakRssKb = number(total, "peak_rss_kb", "\"total\"");
    return snap;
}

/** The apps of @p base that @p cur also has, in name order. */
std::vector<std::string>
common(const Snapshot &base, const Snapshot &cur)
{
    std::vector<std::string> names;
    for (const auto &[name, perf] : base.apps)
        if (cur.apps.count(name))
            names.push_back(name);
    if (names.empty())
        inputError("no app is in both files");
    return names;
}

int
diffSpeedup(const Snapshot &base, const Snapshot &cur, double min_speedup)
{
    int failures = 0;
    for (const std::string &name : common(base, cur)) {
        const double full_s = base.apps.at(name).medianSeconds;
        const double sampled_s = cur.apps.at(name).medianSeconds;
        if (full_s <= 0 || sampled_s <= 0)
            inputError("app '" + name + "' has no positive median_seconds");
        const double achieved = full_s / sampled_s;
        const bool bad = achieved < min_speedup;
        std::printf("%-6s speedup   %10.3fs -> %10.3fs  %9.2fx (want >= "
                    "%.1fx)%s\n",
                    name.c_str(), full_s, sampled_s, achieved, min_speedup,
                    bad ? "  << FAIL" : "");
        failures += bad;
    }
    return failures;
}

int
diffThroughput(const Snapshot &base, const Snapshot &cur,
               const std::vector<std::pair<std::string, double>> &expected)
{
    if (base.totalCps <= 0 || cur.totalCps <= 0)
        inputError("a snapshot has no positive total cycles_per_sec");
    int failures = 0;
    std::printf("%-8s %14s %14s %9s\n", "app", "base c/s", "cur c/s",
                "delta");
    for (const std::string &name : common(base, cur)) {
        const double base_cps = base.apps.at(name).cyclesPerSec;
        const double cur_cps = cur.apps.at(name).cyclesPerSec;
        const double ratio = cur_cps / base_cps;
        // Gated per app, not only in total: one app falling off a cliff
        // can hide inside a healthy total.
        const bool regressed = ratio < 1.0 - kThroughputTol;
        std::printf("%-8s %14.0f %14.0f %+8.1f%%%s\n", name.c_str(), base_cps,
                    cur_cps, (ratio - 1.0) * 100.0,
                    regressed ? "  << REGRESSION" : "");
        failures += regressed;
    }
    const double speedup = cur.totalCps / base.totalCps;
    std::printf("%-8s %14.0f %14.0f %+8.1f%%\n", "TOTAL", base.totalCps,
                cur.totalCps, (speedup - 1.0) * 100.0);
    std::printf("ns/cycle: %.3f -> %.3f   peak RSS: %.0f KB -> %.0f KB\n",
                base.nsPerCycle, cur.nsPerCycle, base.peakRssKb,
                cur.peakRssKb);
    if (speedup < 1.0 - kThroughputTol) {
        std::printf("stats_diff: REGRESSION: total throughput %.2fx of "
                    "baseline (tolerance %.0f%%)\n",
                    speedup, kThroughputTol * 100.0);
        ++failures;
    }
    for (const auto &[app, factor] : expected) {
        const auto base_it = base.apps.find(app);
        const auto cur_it = cur.apps.find(app);
        if (base_it == base.apps.end() || cur_it == cur.apps.end()) {
            std::printf("stats_diff: --expect-speedup app '%s' missing "
                        "from %s\n",
                        app.c_str(),
                        base_it == base.apps.end() ? "baseline" : "current");
            ++failures;
            continue;
        }
        const double achieved =
            cur_it->second.cyclesPerSec / base_it->second.cyclesPerSec;
        const bool bad = achieved < factor;
        std::printf("stats_diff: %s: %s at %.2fx of baseline (expected >= "
                    "%.2fx)\n",
                    bad ? "SPEEDUP SHORTFALL" : "speedup ok", app.c_str(),
                    achieved, factor);
        failures += bad;
    }
    if (base.peakRssKb > 0 &&
        cur.peakRssKb > base.peakRssKb * (1.0 + kRssTol)) {
        std::printf("stats_diff: RSS GROWTH: peak RSS %.0f KB -> %.0f KB "
                    "(%+.1f%%, tolerance %.0f%%)\n",
                    base.peakRssKb, cur.peakRssKb,
                    (cur.peakRssKb / base.peakRssKb - 1.0) * 100.0,
                    kRssTol * 100.0);
        ++failures;
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    double miss_tol = 0.0;    // 0: unset
    double min_speedup = 0.0; // 0: unset
    std::vector<std::pair<std::string, double>> expected;

    auto value = [](const char *arg, const char *flag) -> const char * {
        const size_t n = std::strlen(flag);
        if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = value(arg, "--miss-tol")) {
            miss_tol = parsePositive("--miss-tol", v);
        } else if (const char *v = value(arg, "--min-speedup")) {
            min_speedup = parsePositive("--min-speedup", v);
        } else if (const char *v = value(arg, "--expect-speedup")) {
            const char *colon = std::strchr(v, ':');
            if (!colon || colon == v)
                inputError(std::string("--expect-speedup=") + v +
                           " is not APP:FACTOR (e.g. spmv:2.0)");
            expected.emplace_back(std::string(v, colon),
                                  parsePositive("--expect-speedup", colon + 1));
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf(
                "usage: stats_diff BASE CUR [--miss-tol=F] [--min-speedup=F]\n"
                "                  [--expect-speedup=APP:F]...\n"
                "BASE and CUR are two --stats-json files (full, then "
                "sampled) or two\nperf_sweep snapshots. Exits 1 when a gate "
                "fails, 2 on unreadable input.\n");
            return 0;
        } else if (arg[0] == '-') {
            inputError(std::string("unknown argument '") + arg +
                       "' (try --help)");
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        inputError("want two files, BASE and CUR (try --help)");

    const JsonValue base = load(paths[0]);
    const JsonValue cur = load(paths[1]);
    std::printf("== stats_diff: %s -> %s ==\n", paths[0].c_str(),
                paths[1].c_str());
    int failures = 0;
    if (base.has("apps") && cur.has("apps")) {
        if (min_speedup > 0 || !expected.empty())
            inputError("--min-speedup and --expect-speedup compare "
                       "perf_sweep snapshots");
        failures = diffAccuracy(readRecords(paths[0], base),
                                readRecords(paths[1], cur),
                                miss_tol > 0 ? miss_tol : kMissTol);
    } else if (base.has("per_app") && cur.has("per_app")) {
        if (miss_tol > 0)
            inputError("--miss-tol compares --stats-json files");
        if (min_speedup > 0 && !expected.empty())
            inputError("--min-speedup and --expect-speedup are two gates; "
                       "pass one");
        const Snapshot base_snap = readSnapshot(paths[0], base);
        const Snapshot cur_snap = readSnapshot(paths[1], cur);
        failures = min_speedup > 0
                       ? diffSpeedup(base_snap, cur_snap, min_speedup)
                       : diffThroughput(base_snap, cur_snap, expected);
    } else {
        inputError("BASE and CUR are not two --stats-json files or two "
                   "perf_sweep snapshots");
    }

    if (failures > 0) {
        std::printf("stats_diff: %d gate(s) failed\n", failures);
        return 1;
    }
    std::printf("stats_diff: ok\n");
    return 0;
}
