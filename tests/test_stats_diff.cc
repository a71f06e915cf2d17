/**
 * @file
 * Tests for tools/stats_diff, the gate tool of scripts/check.sh, run on
 * fabricated files: each gate once passing and once failing, and inputs
 * that are not a --stats-json file or a perf_sweep snapshot.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "trace/export.hh"

namespace
{

using gcl::trace::StatsRecord;

struct ToolRun
{
    int status = -1;  //!< exit code (-1: did not exit)
    std::string out;  //!< stdout and stderr together
};

ToolRun
statsDiff(const std::string &args)
{
    const std::string cmd =
        std::string("'") + GCL_STATS_DIFF + "' " + args + " 2>&1";
    ToolRun run;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return run;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        run.out.append(buf, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        run.status = WEXITSTATUS(status);
    return run;
}

std::string
writeFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

std::string
writeStats(const std::string &name, const std::vector<StatsRecord> &records)
{
    std::ostringstream out;
    gcl::trace::exportStatsFile(records, out);
    return writeFile(name, out.str());
}

/**
 * A verified run of @p app: 1000 cycles, L1 misses @p l1 of 100 accesses,
 * L2 misses @p l2 of 40. @p est_cycles > 0 makes it a sampled run.
 */
StatsRecord
run(const std::string &app, double l1, double l2, double est_cycles = 0)
{
    StatsRecord rec;
    rec.name = app;
    rec.verified = true;
    rec.stats.set("cycles", est_cycles > 0 ? 300 : 1000);
    rec.stats.set("l1.access.det", 60);
    rec.stats.set("l1.access.nondet", 40);
    rec.stats.set("l1.miss.det", l1 / 2);
    rec.stats.set("l1.miss.nondet", l1 / 2);
    rec.stats.set("l2.access.det", 40);
    rec.stats.set("l2.miss.det", l2);
    if (est_cycles > 0)
        rec.stats.set("sample.est.cycles", est_cycles);
    return rec;
}

bool
passed(const ToolRun &r)
{
    return r.status == 0 && r.out.find("stats_diff: ok\n") != std::string::npos;
}

TEST(StatsDiff, AccuracyGatesPassWithinTheirBounds)
{
    const std::string full = writeStats("sd_full.json", {run("sssp", 40, 20)});
    const std::string sampled =
        writeStats("sd_sampled.json", {run("sssp", 44, 21.6, 1049)});
    const ToolRun r = statsDiff(full + " " + sampled);
    EXPECT_TRUE(passed(r)) << r.out;
    EXPECT_NE(r.out.find("sssp   cycles            1000 -> est         1049  "
                         "  +4.90% (tol 5.0%)\n"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("sssp   l1 miss         40.00% ->          44.00%  "
                         " +4.00pp (tol 5.0pp)\n"),
              std::string::npos)
        << r.out;
}

TEST(StatsDiff, AccuracyGatesFailOutsideTheirBounds)
{
    const std::string full =
        writeStats("sd_full2.json", {run("gaus", 40, 20), run("srad", 40, 20)});
    struct Case
    {
        const char *what;
        StatsRecord sampled;
        const char *flags;
        const char *message;
    };
    StatsRecord unverified = run("gaus", 40, 20, 1000);
    unverified.verified = false;
    for (const Case &c : std::vector<Case>{
             {"cycles", run("gaus", 40, 20, 1051), "",
              "+5.10% (tol 5.0%)  << FAIL"},
             {"l1 miss", run("gaus", 45.5, 20, 1000), "",
              "+5.50pp (tol 5.0pp)  << FAIL"},
             {"l2 miss at 10pp", run("gaus", 40, 24.4, 1000),
              "--miss-tol=0.10", "+11.00pp (tol 10.0pp)  << FAIL"},
             {"no estimate", run("gaus", 40, 20), "", "sample.est.cycles"},
             {"unverified", unverified, "",
              "NOT VERIFIED (full=1 sampled=0)"}}) {
        const std::string sampled = writeStats("sd_bad.json", {c.sampled});
        const ToolRun r = statsDiff(std::string(c.flags) + " " + full + " " +
                                    sampled);
        EXPECT_EQ(r.status, 1) << c.what << "\n" << r.out;
        EXPECT_NE(r.out.find(c.message), std::string::npos)
            << c.what << "\n" << r.out;
        EXPECT_NE(r.out.find("gate(s) failed"), std::string::npos) << r.out;
    }

    // The same 7pp L2 difference passes at 10pp and fails at 5pp.
    const std::string l2 =
        writeStats("sd_l2.json", {run("gaus", 40, 22.8, 1000)});
    EXPECT_TRUE(passed(statsDiff("--miss-tol=0.10 " + full + " " + l2)));
    EXPECT_EQ(statsDiff(full + " " + l2).status, 1);

    // A sample.* key in the full run is a leak.
    StatsRecord leaked = run("gaus", 40, 20);
    leaked.stats.set("sample.detailed_ctas", 3);
    const ToolRun r =
        statsDiff(writeStats("sd_leak.json", {leaked}) + " " +
                  writeStats("sd_ok.json", {run("gaus", 40, 20, 1000)}));
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("sample.* keys in the full run"), std::string::npos)
        << r.out;
}

TEST(StatsDiff, ComparesOnlyTheAppsInBothFiles)
{
    // srad is in both files; gaus only in the full one, so its far-off
    // miss rates are never compared.
    const std::string full =
        writeStats("sd_two.json", {run("srad", 40, 20), run("gaus", 90, 40)});
    const std::string sampled =
        writeStats("sd_one.json", {run("srad", 40, 20, 1000)});
    const ToolRun r = statsDiff(full + " " + sampled);
    EXPECT_TRUE(passed(r)) << r.out;
    EXPECT_EQ(r.out.find("gaus"), std::string::npos) << r.out;

    const std::string other =
        writeStats("sd_other.json", {run("bfs", 40, 20, 1000)});
    EXPECT_EQ(statsDiff(full + " " + other).status, 2);
}

/** A perf_sweep snapshot of (name, cycles/sec, median seconds) rows. */
std::string
snapshot(const std::string &name,
         const std::vector<std::tuple<const char *, double, double>> &apps,
         double total_cps, double rss_kb)
{
    std::ostringstream out;
    out << "{\"bench\": \"perf_sweep\", \"label\": \"t\", \"per_app\": [";
    for (size_t i = 0; i < apps.size(); ++i)
        out << (i ? ", " : "") << "{\"name\": \"" << std::get<0>(apps[i])
            << "\", \"sim_cycles\": 1000, \"median_seconds\": "
            << std::get<2>(apps[i])
            << ", \"cycles_per_sec\": " << std::get<1>(apps[i]) << "}";
    out << "], \"total\": {\"sim_cycles\": 2000, \"seconds\": 1, "
           "\"cycles_per_sec\": "
        << total_cps << ", \"ns_per_cycle\": 1, \"peak_rss_kb\": " << rss_kb
        << "}}\n";
    return writeFile(name, out.str());
}

TEST(StatsDiff, SkipGateChecksThroughputSpeedupAndRss)
{
    const std::string noskip =
        snapshot("sd_noskip.json", {{"spmv", 1000, 1}}, 1000, 1000);
    const std::string skip =
        snapshot("sd_skip.json", {{"spmv", 2500, 1}}, 2500, 1200);
    const ToolRun ok =
        statsDiff(noskip + " " + skip + " --expect-speedup=spmv:2.0");
    EXPECT_TRUE(passed(ok)) << ok.out;
    EXPECT_NE(ok.out.find("speedup ok: spmv at 2.50x"), std::string::npos)
        << ok.out;

    for (const auto &[what, cur, message] :
         std::vector<std::tuple<const char *, std::string, const char *>>{
             {"short of 2x",
              snapshot("sd_slow.json", {{"spmv", 1900, 1}}, 1900, 1000),
              "SPEEDUP SHORTFALL: spmv at 1.90x"},
             {"RSS over 1.25x",
              snapshot("sd_fat.json", {{"spmv", 2500, 1}}, 2500, 1260),
              "RSS GROWTH"}}) {
        const ToolRun r =
            statsDiff(noskip + " " + cur + " --expect-speedup=spmv:2.0");
        EXPECT_EQ(r.status, 1) << what << "\n" << r.out;
        EXPECT_NE(r.out.find(message), std::string::npos)
            << what << "\n" << r.out;
    }
}

TEST(StatsDiff, PerfDeltaGatesEachAppAndTheTotal)
{
    const std::string base = snapshot(
        "sd_base.json", {{"bfs", 1000, 1}, {"gaus", 1000, 1}}, 1000, 1000);
    EXPECT_TRUE(passed(statsDiff(
        base + " " +
        snapshot("sd_same.json", {{"bfs", 910, 1}, {"gaus", 1200, 1}}, 1050,
                 1000))));

    // gaus falls to 0.85x inside a healthy total: the per-app gate.
    ToolRun r = statsDiff(base + " " +
                          snapshot("sd_gaus.json",
                                   {{"bfs", 1200, 1}, {"gaus", 850, 1}},
                                   1020, 1000));
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("-15.0%  << REGRESSION"), std::string::npos) << r.out;

    r = statsDiff(base + " " +
                  snapshot("sd_total.json",
                           {{"bfs", 950, 1}, {"gaus", 950, 1}}, 890, 1000));
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("REGRESSION: total throughput 0.89x"),
              std::string::npos)
        << r.out;
}

TEST(StatsDiff, SampleSpeedupGateReadsMedianSeconds)
{
    const std::string full =
        snapshot("sd_pfull.json", {{"sssp", 1000, 2.0}}, 1000, 1000);
    // cycles/sec of a fast-forwarded run do not compare: 0 here.
    const ToolRun ok =
        statsDiff("--min-speedup=10 " + full + " " +
                  snapshot("sd_pff.json", {{"sssp", 0, 0.16}}, 0, 1000));
    EXPECT_TRUE(passed(ok)) << ok.out;
    EXPECT_NE(ok.out.find("12.50x (want >= 10.0x)"), std::string::npos)
        << ok.out;

    const ToolRun bad =
        statsDiff("--min-speedup=5 " + full + " " +
                  snapshot("sd_pk9.json", {{"sssp", 900, 0.5}}, 900, 1000));
    EXPECT_EQ(bad.status, 1) << bad.out;
    EXPECT_NE(bad.out.find("4.00x (want >= 5.0x)  << FAIL"), std::string::npos)
        << bad.out;
}

TEST(StatsDiff, UnreadableInputExitsTwoAndNeverPassesAGate)
{
    std::ostringstream whole;
    gcl::trace::exportStatsFile({run("sssp", 40, 20, 1000)}, whole);
    const std::string text = whole.str();
    const std::string full = writeStats("sd_full3.json", {run("sssp", 40, 20)});
    const std::string base =
        snapshot("sd_base2.json", {{"spmv", 1000, 1}}, 1000, 1000);

    for (const auto &[what, path, other] :
         std::vector<std::tuple<const char *, std::string, std::string>>{
             {"truncated stats",
              writeFile("sd_cut.json", text.substr(0, text.size() / 2)), full},
             {"malformed number",
              writeFile("sd_num.json",
                        "{\"apps\": [{\"name\": \"sssp\", \"verified\": true, "
                        "\"stats\": {\"scalars\": {\"sample.est.cycles\": "
                        "1.0.3}, \"histograms\": {}}}]}"),
              full},
             {"unquoted label",
              writeFile("sd_label.json",
                        "{\"bench\": \"perf_sweep\", \"label\": \"x\"y\", "
                        "\"per_app\": [{\"name\": \"spmv\", "
                        "\"median_seconds\": 1, \"cycles_per_sec\": 3000}], "
                        "\"total\": {\"cycles_per_sec\": 3000, "
                        "\"ns_per_cycle\": 1, \"peak_rss_kb\": 1000}}"),
              base},
             {"missing file", ::testing::TempDir() + "sd_none.json", full}}) {
        const ToolRun r = statsDiff(other + " " + path +
                                    " --expect-speedup=spmv:2.0");
        const ToolRun plain = statsDiff(other + " " + path);
        for (const ToolRun &t : {r, plain}) {
            EXPECT_EQ(t.status, 2) << what << "\n" << t.out;
            EXPECT_EQ(t.out.find("ok"), std::string::npos)
                << what << "\n" << t.out;
        }
    }
    EXPECT_EQ(statsDiff(full + " " + base).status, 2);          // two kinds
    EXPECT_EQ(statsDiff(full).status, 2);                       // one file
    EXPECT_EQ(statsDiff("--miss-tol=x " + full + " " + full).status, 2);
}

} // namespace
