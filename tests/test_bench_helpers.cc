/**
 * @file
 * Tests for the benchmark-harness helpers: per-pc series discovery and
 * class-ratio extraction used by the Fig 6/7 artifacts, the per-app table
 * renderer's averaging rule, the artifacts that keep their own tables
 * over unfinished runs, Table III under a partition override, the
 * runner's count-flag parsing and undeclared-run check, and the artifact
 * registry against its goldens.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/app_table.hh"
#include "common/figures.hh"
#include "common/paper.hh"
#include "common/runner.hh"
#include "trace/export.hh"
#include "util/table.hh"

namespace
{

using gcl::StatsSet;
using gcl::bench::classKey;
using gcl::bench::classRatio;
using gcl::bench::discoverPcSeries;
using gcl::bench::hottestPc;

StatsSet
makePcStats()
{
    StatsSet s;
    s.set("pc.kern#5.nondet", 1.0);
    s.hist("pc.kern#5.turn_cnt").add(3, 100.0);
    s.hist("pc.kern#5.turn_cnt").add(7, 50.0);
    s.hist("pc.kern#5.turn_sum").add(3, 40000.0);
    s.set("pc.kern#9.nondet", 0.0);
    s.hist("pc.kern#9.turn_cnt").add(1, 600.0);
    s.set("pc.other_kernel#12.nondet", 1.0);
    s.hist("pc.other_kernel#12.turn_cnt").add(2, 10.0);
    return s;
}

TEST(BenchHelpers, ClassKeySuffixes)
{
    EXPECT_EQ(classKey("gload.reqs", false), "gload.reqs.det");
    EXPECT_EQ(classKey("gload.reqs", true), "gload.reqs.nondet");
}

TEST(BenchHelpers, ClassRatioHandlesMissingClass)
{
    StatsSet s;
    s.set("gload.reqs.det", 30.0);
    s.set("gload.warps.det", 10.0);
    EXPECT_DOUBLE_EQ(classRatio(s, "gload.reqs", "gload.warps", false),
                     3.0);
    EXPECT_DOUBLE_EQ(classRatio(s, "gload.reqs", "gload.warps", true),
                     0.0);
}

TEST(BenchHelpers, DiscoverFindsAllSeriesHeaviestFirst)
{
    const auto series = discoverPcSeries(makePcStats());
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0].kernel, "kern");
    EXPECT_EQ(series[0].pc, 9u);          // 600 warps
    EXPECT_FALSE(series[0].nonDet);
    EXPECT_EQ(series[1].pc, 5u);          // 150 warps
    EXPECT_TRUE(series[1].nonDet);
    EXPECT_EQ(series[1].prefix, "pc.kern#5.");
    EXPECT_EQ(series[2].kernel, "other_kernel");
    EXPECT_EQ(series[2].pc, 12u);
}

TEST(BenchHelpers, HottestPcFiltersByClass)
{
    const auto stats = makePcStats();
    EXPECT_EQ(hottestPc(stats, false).pc, 9u);
    EXPECT_EQ(hottestPc(stats, true).pc, 5u);
}

TEST(BenchHelpers, HottestPcEmptyWhenClassAbsent)
{
    StatsSet s;
    s.set("pc.kern#5.nondet", 1.0);
    s.hist("pc.kern#5.turn_cnt").add(1, 1.0);
    EXPECT_TRUE(hottestPc(s, false).prefix.empty());
    EXPECT_FALSE(hottestPc(s, true).prefix.empty());
}

TEST(BenchHelpers, IgnoresNonPcHistograms)
{
    StatsSet s;
    s.hist("cta_distance").add(1, 5.0);
    s.hist("block_reuse").add(2, 5.0);
    EXPECT_TRUE(discoverPcSeries(s).empty());
}

// The per-app table renderer, fed fabricated runs (no simulation).

using gcl::bench::AppResult;
using gcl::bench::Values;

/** A run of @p name whose one value is its scalar "x" (none when 0). */
AppResult
fakeRun(const char *name, const char *category, double x,
        bool failed = false)
{
    AppResult app;
    app.name = name;
    app.category = category;
    app.stats.set("x", x);
    app.failure.failed = failed;
    return app;
}

std::string
fixed2(double v)
{
    return gcl::Table::fmt(v, 2);
}

/** The table of x with its suite mean and its per-category means. */
std::string
render(const std::vector<AppResult> &apps)
{
    const gcl::bench::AppTable table = {
        .category = true,
        .columns = {{"x", fixed2}},
        .values = [](const AppResult &app) -> Values {
            const double x = app.stats.get("x");
            return {x ? std::optional(x) : std::nullopt};
        },
        .summaries = {{.means = {{"mean x: ", 0, fixed2}}},
                      {.byCategory = true,
                       .means = {{"mean x: ", 0, fixed2}},
                       .tail = " (per category)"}}};
    std::vector<const AppResult *> rows;
    for (const AppResult &app : apps)
        rows.push_back(&app);
    std::ostringstream out;
    gcl::bench::printAppTable(table, rows, out, "note\n");
    return out.str();
}

TEST(AppTable, OneAppAveragesEqualItsRow)
{
    EXPECT_EQ(render({fakeRun("gaus", "linear", 9.11)}),
              "app   category  x   \n"
              "--------------------\n"
              "gaus  linear    9.11\n"
              "\n"
              "mean x: 9.11\n"
              "category linear mean x: 9.11 (per category)\n"
              "note\n"
              "\nCSV:\n"
              "app,category,x\n"
              "gaus,linear,9.11\n");
}

TEST(AppTable, FailedRunPrintsDashesAndEntersNoAverage)
{
    // bpr failed: its row keeps its name and category, every value cell
    // is "-", and it enters neither the suite mean nor a category. dwt
    // finished without a value: "-" in its cell, and its category's mean
    // has nothing to average.
    const std::string out = render({fakeRun("gaus", "linear", 1.0),
                                    fakeRun("bpr", "image", 100.0, true),
                                    fakeRun("lu", "linear", 4.0),
                                    fakeRun("dwt", "graph", 0.0)});
    EXPECT_NE(out.find("bpr   image     -   \n"), std::string::npos) << out;
    EXPECT_NE(out.find("dwt   graph     -   \n"), std::string::npos) << out;
    EXPECT_NE(out.find("\nmean x: 2.50\n"), std::string::npos) << out;
    EXPECT_NE(out.find("\ncategory graph mean x: - (per category)\n"
                       "category linear mean x: 2.50 (per category)\n"
                       "note\n"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("category image"), std::string::npos) << out;
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
    EXPECT_NE(out.find("\nbpr,image,-\n"), std::string::npos) << out;
}

TEST(AppTable, CategoryMeanDividesByItsOwnFinishedApps)
{
    const std::string out = render({fakeRun("2mm", "linear", 1.0),
                                    fakeRun("bfs", "graph", 10.0),
                                    fakeRun("gaus", "linear", 2.0),
                                    fakeRun("sssp", "graph", 30.0, true),
                                    fakeRun("lu", "linear", 6.0)});
    EXPECT_NE(out.find("\nmean x: 4.75\n"
                       "category graph mean x: 10.00 (per category)\n"
                       "category linear mean x: 3.00 (per category)\n"),
              std::string::npos)
        << out;
}

// The artifacts that keep their own tables, fed fabricated runs.

const gcl::bench::Artifact &
artifactNamed(const std::string &name)
{
    for (const gcl::bench::Artifact &artifact : gcl::bench::artifacts())
        if (artifact.name == name)
            return artifact;
    throw std::runtime_error("no artifact " + name);
}

/**
 * @p name printed over fabricated runs of all it declares: bfs fails
 * under every config and ccl under every config but the base one. Every
 * finished run has 1000 cycles, L1 and L2 miss ratios of 40% and 50%,
 * and one load of each class.
 */
std::string
printWithFailures(const std::string &name)
{
    const gcl::bench::Artifact &artifact = artifactNamed(name);
    const gcl::sim::GpuConfig base = gcl::bench::artifactBase(artifact);
    gcl::bench::Results results;
    for (const gcl::bench::Run &run : artifact.runs(base)) {
        AppResult app;
        app.name = run.app;
        app.config = run.config;
        app.failure.failed =
            run.app == "bfs" ||
            (run.app == "ccl" &&
             run.config.fingerprint() != base.fingerprint());
        if (!app.failure.failed) {
            StatsSet &s = app.stats;
            s.set("cycles", 1000);
            s.set("l1.access.det", 100);
            s.set("l1.miss.det", 40);
            s.set("l2.access.det", 40);
            s.set("l2.miss.det", 20);
            for (const char *cls : {"det", "nondet"}) {
                s.set(std::string("turn.cnt.") + cls, 10);
                s.set(std::string("turn.sum.") + cls, 500);
            }
            s.set("pc.k#5.nondet", 1);
            s.hist("pc.k#5.turn_cnt").add(3, 10);
            s.hist("pc.k#5.turn_sum").add(3, 400);
            s.set("pc.k#9.nondet", 0);
            s.hist("pc.k#9.turn_cnt").add(1, 5);
            s.hist("pc.k#9.turn_sum").add(1, 100);
        }
        results.add(std::move(app));
    }
    std::ostringstream out;
    artifact.print(base, results, out);
    return out.str();
}

TEST(PaperArtifacts, UnfinishedRunsPrintDashesInTheirCells)
{
    // A failed run keeps its row and prints "-" in each cell it has no
    // value for, never a count of zero read from its emptied stats.
    const std::string fig5 = printWithFailures("fig5_turnaround");
    EXPECT_NE(fig5.find("\nbfs,-,-,-,-,-,-\n"), std::string::npos) << fig5;
    EXPECT_NE(fig5.find("\ngaus,N,0.0,0.0,0.0,0.0,50.0\n"), std::string::npos)
        << fig5;

    const std::string fig6 = printWithFailures("fig6_turnaround_vs_reqs");
    EXPECT_NE(fig6.find("\nbfs,-,-,-,-,-,-\nsssp,k,5,N,3,10,40.0\n"),
              std::string::npos)
        << fig6;

    const std::string fig7 = printWithFailures("fig7_gap_breakdown");
    EXPECT_NE(fig7.find("load: -\n"), std::string::npos) << fig7;
    EXPECT_NE(fig7.find("\n-,-,-,-,-,-\n"), std::string::npos) << fig7;
    EXPECT_EQ(fig7.find("no non-deterministic load"), std::string::npos)
        << fig7;

    const std::string cta = printWithFailures("ablation_cta_sched");
    EXPECT_NE(cta.find("\nbfs,-,-,-,-,-\n"), std::string::npos) << cta;
    EXPECT_NE(cta.find("\nccl,40.00%,-,1000,-,-\n"), std::string::npos)
        << cta;
    EXPECT_NE(cta.find("\ngaus,40.00%,40.00%,1000,1000,1.000\n"),
              std::string::npos)
        << cta;
    const std::string semi = printWithFailures("ablation_semi_global_l2");
    EXPECT_NE(semi.find("\nccl,50.00%,-,1000,-,-\n"), std::string::npos)
        << semi;

    const std::string l1 = printWithFailures("ablation_l1_size");
    EXPECT_NE(l1.find("\nbfs,8KB,-,-,-\n"), std::string::npos) << l1;
    EXPECT_NE(l1.find("\nccl,8KB,-,-,-\nccl,16KB,40.00%,1000,1.000\n"),
              std::string::npos)
        << l1;

    const std::string split = printWithFailures("ablation_warp_split");
    EXPECT_NE(split.find("\nbfs,-,-,-,-,-,-\n"), std::string::npos) << split;
    EXPECT_NE(split.find("\nccl,50.0,-,50.0,-,1000,-\n"), std::string::npos)
        << split;
}

TEST(PaperTable3, SumsEveryPartitionOfTheRun)
{
    // --sim-config reaches the runs, not the base config an artifact
    // prints under: with eight partitions, gaus's L2 columns sum all eight
    // slices of its stats, and the bfs per-slice report lists eight.
    const std::string dir = ::testing::TempDir() + "table3_partitions";
    const std::string stats = dir + "/stats.json";
    const std::string cmd = "GCL_BENCH_CACHE='" + dir + "/cache' '" +
                            GCL_PAPER +
                            "' table3_profiler --apps=gaus --fresh --jobs=2 "
                            "--sim-config=num_partitions=8 --stats-json='" +
                            stats + "' 2> /dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;

    std::vector<gcl::trace::StatsRecord> records;
    std::string error;
    ASSERT_TRUE(gcl::trace::readStatsFile(stats, records, &error)) << error;
    const gcl::trace::StatsRecord *gaus = nullptr;
    for (const gcl::trace::StatsRecord &rec : records)
        if (rec.name == "gaus")
            gaus = &rec;
    ASSERT_NE(gaus, nullptr);
    ASSERT_GT(gaus->stats.get("l2.queries.p7"), 0.0);
    double queries = 0.0, hits = 0.0;
    for (int p = 0; p < 8; ++p) {
        queries += gaus->stats.get("l2.queries.p" + std::to_string(p));
        hits += gaus->stats.get("l2.hits.p" + std::to_string(p));
    }
    const std::string row_end = "," + gcl::Table::fmtInt(queries) + "," +
                                gcl::Table::fmtInt(hits) + "\n";
    const size_t row = out.find("\ngaus,");
    ASSERT_NE(row, std::string::npos) << out;
    EXPECT_EQ(out.compare(out.find('\n', row + 1) + 1 - row_end.size(),
                          row_end.size(), row_end),
              0)
        << out;
    EXPECT_NE(out.find("l2_subp7_read_sector_queries"), std::string::npos)
        << out;
}

TEST(BenchFlagsDeathTest, MalformedCountsAreFatal)
{
    // initBench only parses and validates; it starts no sweep. A count
    // flag with a sign, trailing text or no digits must exit 1 naming the
    // flag, not run as a default, truncated or wrapped value.
    for (const char *flag :
         {"--timeline-interval=abc", "--timeline-interval=200x",
          "--timeline-interval=-1", "--max-cycles=-1", "--jobs=-2"}) {
        std::string prog = "bench";
        std::string arg = flag;
        char *argv[] = {prog.data(), arg.data(), nullptr};
        EXPECT_EXIT(gcl::bench::initBench(2, argv, ""),
                    ::testing::ExitedWithCode(1),
                    "fatal: " + arg + " is not a ")
            << flag;
    }
}

TEST(BenchRunnerDeathTest, ReadingAnUndeclaredRunIsFatal)
{
    // An empty batch simulates nothing; an artifact that reads a run it
    // did not declare must stop, not print a table of empty stats.
    const gcl::bench::Results results = gcl::bench::runApps({});
    EXPECT_EXIT(results.at("bfs", gcl::sim::GpuConfig{}),
                ::testing::ExitedWithCode(1), "which it did not declare");
}

TEST(PaperRegistry, NamesMatchGoldensOneToOne)
{
    // Every artifact has a committed golden (scripts/check.sh diffs them)
    // and every golden belongs to an artifact. Runs no simulation.
    std::set<std::string> expected;
    for (const auto &artifact : gcl::bench::artifacts())
        EXPECT_TRUE(expected.insert(std::string(artifact.name) + ".txt")
                        .second)
            << "duplicate artifact name " << artifact.name;
    std::set<std::string> goldens;
    for (const auto &entry : std::filesystem::directory_iterator(
             GCL_REPO_GOLDENS_DIR "/paper"))
        goldens.insert(entry.path().filename().string());
    EXPECT_EQ(expected, goldens);
}

} // namespace
