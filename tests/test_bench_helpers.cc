/**
 * @file
 * Tests for the benchmark-harness helpers: per-pc series discovery and
 * class-ratio extraction used by the Fig 6/7 artifacts, the per-app table
 * renderer's averaging rule, the runner's count-flag parsing and
 * undeclared-run check, and the artifact registry against its goldens.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "common/app_table.hh"
#include "common/figures.hh"
#include "common/paper.hh"
#include "common/runner.hh"
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

TEST(BenchFlagsDeathTest, MalformedCountsAreFatal)
{
    // initBench only parses and validates; it starts no sweep. A count
    // flag with a sign, trailing text or no digits must exit 1 naming the
    // flag, not run as a default, truncated or wrapped value.
    for (const char *flag :
         {"--timeline-interval=abc", "--timeline-interval=200x",
          "--timeline-interval=-1", "--max-cycles=-1", "--jobs=-2",
          "--crit-top-n=-1"}) {
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
