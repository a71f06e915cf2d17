/**
 * @file
 * Contracts of the gcl::crit criticality profiler (src/crit):
 *
 *  - Accounting identity: every issue slot of every SM cycle is either
 *    issued or charged to exactly one stall reason, so
 *    issued + sum(stall) == cycles * issue_width holds exactly, per SM
 *    and device-wide. tools/trace_check re-verifies the same identity on
 *    every exported stats file.
 *
 *  - Attribution joins: every completed global-load warp op contributes
 *    one turnaround sample, so the per-PC turn counts sum to the
 *    existing gload warp counters.
 *
 *  - Observer effect: none. With crit on, the non-crit stats must be
 *    BYTE-identical to a crit-off run (the profiler only observes); with
 *    crit off, no crit.* key may appear and the stats must be
 *    byte-identical to the seed behavior.
 *
 *  - Determinism: per-SM shards merge in creation (SM-id) order.
 *    scripts/check.sh diffs crit_report output against a committed
 *    golden.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/machine.hh"
#include "util/stats.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::StatsSet;
using gcl::sim::GpuConfig;
using gcl::workloads::SimContext;
using gcl::workloads::byName;

/** Run @p app to completion and return its finalized stats. */
StatsSet
runStats(const std::string &app, bool crit, GpuConfig config = {})
{
    config.crit = crit;
    SimContext ctx(byName(app), config);
    ctx.run();
    EXPECT_FALSE(ctx.failed()) << app << ": " << ctx.failure().message;
    EXPECT_TRUE(ctx.verified()) << app;
    return ctx.stats();
}

/** @p stats without every crit.* scalar and histogram. */
StatsSet
stripCrit(const StatsSet &stats)
{
    StatsSet out;
    for (const auto &[key, value] : stats.scalars())
        if (key.compare(0, 5, "crit.") != 0)
            out.set(key, value);
    for (const auto &[key, hist] : stats.hists())
        if (key.compare(0, 5, "crit.") != 0)
            out.hist(key).merge(hist);
    return out;
}

const char *const kReasons[] = {
    "data_hazard", "barrier",           "ibuffer_empty", "pipeline",
    "mshr_full",   "icnt_backpressure", "idle",
};

TEST(Crit, AccountingIdentityHoldsExactly)
{
    // gaus and bpr on the default machine, plus gaus on modern-core (GTO,
    // four schedulers per SM), whose age lists see greedy re-issues and
    // interleaved schedulers; checked builds compare every blocking warp
    // against the reference scan along the way.
    const GpuConfig modern = gcl::sim::loadMachineFile(
        std::string(GCL_REPO_CONFIGS_DIR) + "/modern-core.config");
    const std::vector<std::pair<std::string, GpuConfig>> runs = {
        {"gaus", GpuConfig{}},
        {"bpr", GpuConfig{}},
        {"gaus", modern},
    };
    for (const auto &[app_name, machine] : runs) {
        const std::string app = app_name + " on " + machine.machineName;
        const StatsSet stats = runStats(app_name, true, machine);
        ASSERT_TRUE(stats.has("crit.issue_width")) << app;
        const double width = stats.get("crit.issue_width");
        ASSERT_GT(width, 0) << app;

        // Per SM: slots charged == slots offered, exactly (all values are
        // integer-valued doubles well under 2^53, so == is exact).
        unsigned sms = 0;
        for (;; ++sms) {
            const std::string prefix =
                "crit.sm" + std::to_string(sms) + '.';
            if (!stats.has(prefix + "cycles"))
                break;
            double charged = stats.get(prefix + "issued");
            for (const char *reason : kReasons)
                charged += stats.get(prefix + "stall." + reason);
            EXPECT_EQ(charged, stats.get(prefix + "cycles") * width)
                << app << " sm" << sms;
        }
        EXPECT_EQ(sms, static_cast<unsigned>(stats.get("crit.sms")))
            << app;
        EXPECT_GT(sms, 0u) << app;

        // Device-wide, same identity.
        double charged = stats.get("crit.issued");
        for (const char *reason : kReasons)
            charged += stats.get(std::string("crit.stall.") + reason);
        EXPECT_EQ(charged, stats.get("crit.cycles") * width) << app;

        // The data-hazard class split partitions the reason's total.
        EXPECT_EQ(stats.get("crit.stall.data_hazard"),
                  stats.get("crit.stall.data_hazard.det") +
                      stats.get("crit.stall.data_hazard.nondet") +
                      stats.get("crit.stall.data_hazard.other"))
            << app;
    }
}

TEST(Crit, TurnaroundCountsJoinTheGloadCounters)
{
    const StatsSet stats = runStats("gaus", true);
    double turn_cnt = 0;
    for (const auto &[key, value] : stats.scalars()) {
        if (key.compare(0, 8, "crit.pc.") != 0)
            continue;
        if (key.size() > 9 &&
            key.compare(key.size() - 9, 9, ".turn_cnt") == 0)
            turn_cnt += value;
    }
    EXPECT_EQ(turn_cnt, stats.get("gload.warps.det") +
                            stats.get("gload.warps.nondet"));
}

TEST(Crit, ProfilerIsAPureObserver)
{
    // Off: no crit key at all — the stats are the seed's stats.
    const StatsSet off = runStats("gaus", false);
    for (const auto &[key, value] : off.scalars())
        EXPECT_NE(key.compare(0, 5, "crit."), 0) << key;
    for (const auto &[key, hist] : off.hists())
        EXPECT_NE(key.compare(0, 5, "crit."), 0) << key;

    // On: strictly additive — strip crit.* and the remainder is
    // byte-identical, so attribution never perturbed the simulation.
    const StatsSet on = runStats("gaus", true);
    EXPECT_TRUE(on.has("crit.issue_width"));
    EXPECT_EQ(stripCrit(on).serialize(), off.serialize());
}

// tools/crit_report reads its flags and its stats JSON through the shared
// parsers (gcl::parseCount, trace::importStatsJson). Each death test runs
// the tool in the forked child.

TEST(CritReportDeathTest, NegativeTopNIsNotARowCount)
{
    // A hand-rolled strtoul once wrapped -1 to ULONG_MAX and printed
    // every row.
    EXPECT_EXIT(execl(GCL_CRIT_REPORT, "crit_report", "--top-n=-1",
                      static_cast<char *>(nullptr)),
                ::testing::ExitedWithCode(1),
                "fatal: --top-n=-1 is not a row count");
}

TEST(CritReportDeathTest, NonIntegerBucketIsRejected)
{
    // trace_check rejects this file; crit_report once read the bucket
    // "0x" as 0 and printed a report.
    const std::string path = ::testing::TempDir() + "crit_report_0x.json";
    std::ofstream(path) << R"({"apps": [{"name": "a", "stats": {
        "scalars": {"crit.issue_width": 2, "crit.cycles": 10},
        "histograms": {"h": {"buckets": {"0x": 1}}}}}]})";
    const std::string stats = "--stats=" + path;
    EXPECT_EXIT(execl(GCL_CRIT_REPORT, "crit_report", stats.c_str(),
                      static_cast<char *>(nullptr)),
                ::testing::ExitedWithCode(1),
                "app 'a': histogram 'h' bucket '0x' is not an integer");
}

} // namespace
