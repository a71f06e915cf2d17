#include "paper.hh"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "app_table.hh"
#include "crit/report.hh"
#include "figures.hh"
#include "profiler/counters.hh"
#include "util/histogram.hh"
#include "util/table.hh"

namespace gcl::bench
{

namespace
{

/** One run of each of @p apps under @p config (a fixed app list). */
std::vector<Run>
appRuns(const std::vector<const char *> &apps, const sim::GpuConfig &config)
{
    std::vector<Run> runs;
    for (const char *app : apps)
        runs.push_back({app, config});
    return runs;
}

// The cells of the tables that keep their own code. A run that did not
// finish prints "-" in each of its cells, as in the per-app tables.

/** "-" in each of @p cells after @p name. */
std::vector<std::string>
unfinishedRow(const std::string &name, size_t cells)
{
    std::vector<std::string> row(cells + 1, "-");
    row[0] = name;
    return row;
}

/** Combined L1 or L2 miss ratio over both load classes, as a percent. */
std::string
missCell(const AppResult &app, const char *level)
{
    if (!finished(app))
        return "-";
    const std::string l = level;
    const double access = app.stats.get(l + ".access.det") +
                          app.stats.get(l + ".access.nondet");
    const double misses = app.stats.get(l + ".miss.det") +
                          app.stats.get(l + ".miss.nondet");
    return Table::fmtPct(access ? misses / access : 0.0);
}

std::string
cyclesCell(const AppResult &app)
{
    return finished(app) ? Table::fmtInt(static_cast<uint64_t>(
                               app.stats.get("cycles")))
                         : "-";
}

/** @p base's cycles over @p variant's. */
std::string
speedupCell(const AppResult &base, const AppResult &variant)
{
    if (!finished(base) || !finished(variant))
        return "-";
    const double cycles = variant.stats.get("cycles");
    return Table::fmt(cycles ? base.stats.get("cycles") / cycles : 0.0, 3);
}

std::vector<Run>
noRuns(const sim::GpuConfig &)
{
    return {};
}

/** Print @p table aligned, then @p note, then the same table as CSV. */
void
printTable(const Table &table, std::ostream &out, const std::string &note = {})
{
    table.print(out);
    out << note << "\nCSV:\n";
    table.printCsv(out);
}

// ---------------------------------------------------------------------------
// The per-app tables (app_table.hh): formats and the artifact that prints
// one over the suite. EXPERIMENTS.md compares each with the paper's shape.

std::string
integer(double v)
{
    return Table::fmtInt(static_cast<uint64_t>(v));
}

std::string
percent(double v)
{
    return Table::fmtPct(v);
}

template <int Precision>
std::string
fixed(double v)
{
    return Table::fmt(v, Precision);
}

/** An artifact that prints @p table over the suite. */
Artifact
perApp(const char *name, const char *title, AppTable table,
       bool crit = false)
{
    return {name, title, crit, suiteRuns,
            [table](const sim::GpuConfig &base, const Results &results,
                    std::ostream &out) {
                printAppTable(table, results.suite(base), out);
            }};
}

// ---------------------------------------------------------------------------
// Table II: the simulated device configuration (GPGPU-Sim v3.2.2, Tesla
// C2050-class defaults). Renders whatever machine description --machine
// resolved — the compiled-in C2050 when unset — so it doubles
// as a quick "what am I simulating" check for the configs/ zoo.

void
printTable2(const sim::GpuConfig &base, const Results &, std::ostream &out)
{
    out << base.describe() << "\nAnalytic unloaded latencies: L1 hit "
        << base.l1HitLatency << ", L2 hit " << base.unloadedL2Latency()
        << ", DRAM " << base.unloadedDramLatency() << " cycles\n";
}

// ---------------------------------------------------------------------------
// Table III: the CUDA-Profiler counter set, collected from the simulator
// for every application, plus the per-L2-slice view of one
// representative app (the paper's counters are per slice).

const char *const kSliceApp = "bfs";

std::vector<Run>
table3Runs(const sim::GpuConfig &base)
{
    std::vector<Run> runs = suiteRuns(base);
    runs.push_back({kSliceApp, base});
    return runs;
}

void
printTable3(const sim::GpuConfig &base, const Results &results,
            std::ostream &out)
{
    auto counters = [](const AppResult &app) {
        return profiler::Counters::fromStats(app.stats,
                                             app.config.numPartitions);
    };
    const AppResult &slice_app = results.at(kSliceApp, base);
    printAppTable(
        {.columns = {{"gld_request", integer}, {"shared_load", integer},
                     {"l1_gld_hit", integer}, {"l1_gld_miss", integer},
                     {"l2_read_queries", integer}, {"l2_read_hits", integer}},
         .values = [&](const AppResult &app) -> Values {
             const profiler::Counters c = counters(app);
             const std::vector<double> &q = c.l2ReadQueries;
             const std::vector<double> &h = c.l2ReadHits;
             return {c.gldRequest, c.sharedLoad, c.l1GlobalLoadHit,
                     c.l1GlobalLoadMiss,
                     std::accumulate(q.begin(), q.end(), 0.0),
                     std::accumulate(h.begin(), h.end(), 0.0)};
         }},
        results.suite(base), out,
        std::string("\n") + kSliceApp + " per-slice profiler output:\n" +
            (finished(slice_app) ? counters(slice_app).report() : "-\n"));
}

// ---------------------------------------------------------------------------
// Figure 5: global-load turnaround decomposition per class: unloaded
// latency, reservation fails caused by previous warps and by the current
// warp, and cycles wasted in L2 + DRAM.

std::vector<std::string>
turnaroundRow(const AppResult &app, bool non_det)
{
    const auto &s = app.stats;
    const double cnt = s.get(classKey("turn.cnt", non_det));
    auto avg = [&](const char *key) {
        return cnt ? s.get(classKey(key, non_det)) / cnt : 0.0;
    };
    return {
        app.name,
        non_det ? "N" : "D",
        Table::fmt(avg("turn.unloaded"), 1),
        Table::fmt(avg("turn.rsrv_prev"), 1),
        Table::fmt(avg("turn.rsrv_cur"), 1),
        Table::fmt(avg("turn.mem"), 1),
        Table::fmt(avg("turn.sum"), 1),
    };
}

void
printFig5(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "class", "unloaded", "rsrv_prev_warps",
                 "rsrv_cur_warp", "wasted_l2_dram", "total"});
    for (const AppResult *app : results.suite(base)) {
        if (!finished(*app)) {
            table.addRow(unfinishedRow(app->name, 6));
            continue;
        }
        if (app->stats.get("turn.cnt.nondet") > 0)
            table.addRow(turnaroundRow(*app, true));
        if (app->stats.get("turn.cnt.det") > 0)
            table.addRow(turnaroundRow(*app, false));
    }
    printTable(table, out);
}

// ---------------------------------------------------------------------------
// Figure 6: turnaround against the number of requests a warp generates,
// for the heaviest non-deterministic and the heaviest deterministic load
// of three irregular apps.

const std::vector<const char *> kFig6Apps = {"bfs", "sssp", "spmv"};

std::vector<Run>
fig6Runs(const sim::GpuConfig &base)
{
    return appRuns(kFig6Apps, base);
}

void
printFig6(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "kernel", "pc", "class", "requests", "warps",
                 "avg turnaround"});

    for (const char *name : kFig6Apps) {
        const AppResult &app = results.at(name, base);
        if (!finished(app)) {
            table.addRow(unfinishedRow(app.name, 6));
            continue;
        }
        for (bool non_det : {true, false}) {
            const auto series = hottestPc(app.stats, non_det);
            if (series.prefix.empty())
                continue;
            const auto &cnt =
                app.stats.histOrEmpty(series.prefix + "turn_cnt");
            const auto &sum =
                app.stats.histOrEmpty(series.prefix + "turn_sum");
            for (const auto &[nreq, warps] : cnt.buckets()) {
                table.addRow({
                    app.name,
                    series.kernel,
                    Table::fmtInt(series.pc),
                    non_det ? "N" : "D",
                    Table::fmtInt(static_cast<uint64_t>(nreq)),
                    Table::fmtInt(static_cast<uint64_t>(warps)),
                    Table::fmt(sum.weightAt(nreq) / warps, 1),
                });
            }
        }
    }
    printTable(table, out);
}

// ---------------------------------------------------------------------------
// Figure 7: per-request-count gap breakdown of bfs's hottest
// non-deterministic load: where the requests of one warp wait after the
// common (unloaded DRAM) latency.

const char *const kFig7App = "bfs";

std::vector<Run>
fig7Runs(const sim::GpuConfig &base)
{
    return appRuns({kFig7App}, base);
}

void
printFig7(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    const AppResult &app = results.at(kFig7App, base);
    Table table({"requests", "warps", "common latency", "gap at L1D",
                 "gap at icnt-L2", "gap at L2-icnt"});
    if (!finished(app)) {
        out << "load: -\n\n";
        table.addRow(std::vector<std::string>(6, "-"));
        printTable(table, out);
        return;
    }
    const auto series = hottestPc(app.stats, true);
    if (series.prefix.empty()) {
        out << "no non-deterministic load recorded\n";
        return;
    }
    out << "load: kernel " << series.kernel << ", pc " << series.pc
        << "\n\n";

    const auto &cnt = app.stats.histOrEmpty(series.prefix + "turn_cnt");
    const auto &g1 = app.stats.histOrEmpty(series.prefix + "gap_l1d");
    const auto &g2 = app.stats.histOrEmpty(series.prefix + "gap_icnt_l2");
    const auto &g3 = app.stats.histOrEmpty(series.prefix + "gap_l2icnt");
    for (const auto &[nreq, warps] : cnt.buckets()) {
        table.addRow({
            Table::fmtInt(static_cast<uint64_t>(nreq)),
            Table::fmtInt(static_cast<uint64_t>(warps)),
            Table::fmt(base.unloadedDramLatency(), 1),
            Table::fmt(g1.weightAt(nreq) / warps, 1),
            Table::fmt(g2.weightAt(nreq) / warps, 1),
            Table::fmt(g3.weightAt(nreq) / warps, 1),
        });
    }
    printTable(table, out);
}

// ---------------------------------------------------------------------------
// Figure 12: frequency of CTA distances among the CTAs that share a data
// block, per application category.
//
// Paper shape: linear-algebra apps share at distance 1 plus
// matrix-dimension strides; image apps share (when at all) at distance 1;
// graph apps spread sharing across a wide distance range, driven by their
// non-deterministic loads.

void
printFig12(const sim::GpuConfig &base, const Results &results,
           std::ostream &out)
{
    Table per_app({"app", "category", "top distances (distance:fraction)"});
    std::map<std::string, Histogram> by_category;
    std::map<std::string, Histogram> graph_by_class;

    for (const AppResult *app : results.suite(base)) {
        if (!finished(*app)) {
            per_app.addRow({app->name, app->category, "-"});
            continue;
        }
        const Histogram &dist = app->stats.histOrEmpty("cta_distance");
        by_category[app->category].merge(dist);
        if (app->category == "graph") {
            graph_by_class["det"].merge(
                app->stats.histOrEmpty("cta_distance.det"));
            graph_by_class["nondet"].merge(
                app->stats.histOrEmpty("cta_distance.nondet"));
        }

        // Format the five heaviest buckets.
        std::vector<std::pair<double, int64_t>> top;
        for (const auto &[d, w] : dist.buckets())
            top.emplace_back(w, d);
        std::sort(top.rbegin(), top.rend());
        std::string cell;
        for (size_t i = 0; i < std::min<size_t>(5, top.size()); ++i) {
            if (i)
                cell += "  ";
            cell += std::to_string(top[i].second) + ":" +
                    Table::fmtPct(top[i].first / dist.totalWeight(), 1);
        }
        per_app.addRow({app->name, app->category,
                        cell.empty() ? "-" : cell});
    }
    per_app.print(out);

    out << "\nPer-category distance distribution (distance: fraction):\n";
    for (const auto &[category, hist] : by_category) {
        out << "  " << category << ":";
        int emitted = 0;
        for (const auto &[d, frac] : hist.normalized()) {
            if (frac < 0.01)
                continue;
            out << "  " << d << ":" << Table::fmtPct(frac, 1);
            if (++emitted >= 10)
                break;
        }
        out << "  (mean distance " << Table::fmt(hist.mean(), 1) << ", "
            << hist.numBuckets() << " distinct distances)\n";
    }

    out << "\nGraph-category sharing dispersion by load class:\n";
    for (const auto &[cls, hist] : graph_by_class)
        out << "  " << cls << ": mean distance "
            << Table::fmt(hist.mean(), 1) << ", " << hist.numBuckets()
            << " distinct distances\n";
    out << "(paper: non-deterministic loads disperse sharing across a wide "
           "CTA-distance range)\n";
}

// ---------------------------------------------------------------------------
// The two suite-wide ablations: the suite under the base config and under
// one variant, compared by one cache level's miss ratio and by cycles.

/** The suite under @p base, then under @p variant. */
std::vector<Run>
suitePairRuns(const sim::GpuConfig &base, const sim::GpuConfig &variant)
{
    std::vector<Run> runs = suiteRuns(base);
    for (Run &run : suiteRuns(variant))
        runs.push_back(std::move(run));
    return runs;
}

/**
 * One row per suite app into @p table: the @p level ("l1"/"l2") miss
 * ratio and the cycles under @p base and @p variant, and the variant's
 * speedup.
 */
void
printSuitePair(const sim::GpuConfig &base, const sim::GpuConfig &variant,
               const char *level, Table table, const Results &results,
               std::ostream &out)
{
    const auto with_base = results.suite(base);
    const auto with_variant = results.suite(variant);
    for (size_t i = 0; i < with_base.size(); ++i) {
        const AppResult &app_base = *with_base[i];
        const AppResult &app_variant = *with_variant[i];
        table.addRow({app_base.name, missCell(app_base, level),
                      missCell(app_variant, level), cyclesCell(app_base),
                      cyclesCell(app_variant),
                      speedupCell(app_base, app_variant)});
    }
    printTable(table, out);
}

// Section X.B ablation: clustered CTA scheduling vs the round-robin
// baseline. The paper suggests (without evaluating) that assigning
// neighboring CTAs to the same SM should convert the inter-CTA locality of
// Figs 11/12 into L1 hits; this runs both policies and reports the L1
// miss-ratio and cycle deltas.

sim::GpuConfig
clustered(sim::GpuConfig config)
{
    config.ctaSched = sim::CtaSchedPolicy::Clustered;
    config.ctaClusterSize = 2;
    return config;
}

std::vector<Run>
ctaSchedRuns(const sim::GpuConfig &base)
{
    return suitePairRuns(base, clustered(base));
}

void
printCtaSched(const sim::GpuConfig &base, const Results &results,
              std::ostream &out)
{
    printSuitePair(base, clustered(base), "l1",
                   Table({"app", "L1 miss RR", "L1 miss clustered",
                          "cycles RR", "cycles clustered", "speedup"}),
                   results, out);
}

// Section X.C ablation: semi-global L2 — clusters of SMs each own a slice
// of the L2 partitions instead of all SMs striping over all partitions.
// The paper suggests this to shorten interconnect paths and to let nearby
// CTAs (which share data, Fig 11) hit in the same slice; this compares L2
// miss ratios and end-to-end cycles.

sim::GpuConfig
semiGlobal(sim::GpuConfig config)
{
    config.smsPerL2Cluster = 5; // 3 clusters x 2 partitions each
    return config;
}

std::vector<Run>
semiGlobalRuns(const sim::GpuConfig &base)
{
    return suitePairRuns(base, semiGlobal(base));
}

void
printSemiGlobal(const sim::GpuConfig &base, const Results &results,
                std::ostream &out)
{
    printSuitePair(base, semiGlobal(base), "l2",
                   Table({"app", "L2 miss unified", "L2 miss semi",
                          "cycles unified", "cycles semi", "speedup"}),
                   results, out);
}

// ---------------------------------------------------------------------------
// Cache-size sensitivity. Section II echoes Xu et al.'s finding that L1
// capacity barely correlates with graph-application performance, and
// Section VIII explains why: the miss problem is reservation-fail
// contention plus low temporal locality per SM, not capacity. This sweeps
// the L1D from half to 4x the Table II size on representative apps from
// each category.

const std::vector<const char *> kL1SizeApps = {"2mm", "spmv", "dwt", "bfs",
                                               "ccl"};
const uint32_t kL1SizesKb[] = {8, 16, 32, 64};

sim::GpuConfig
withL1Kb(sim::GpuConfig config, uint32_t kb)
{
    config.l1.sizeBytes = kb * 1024;
    return config;
}

std::vector<Run>
l1SizeRuns(const sim::GpuConfig &base)
{
    std::vector<Run> runs;
    for (const char *app : kL1SizeApps) {
        runs.push_back({app, base});
        for (uint32_t kb : kL1SizesKb)
            runs.push_back({app, withL1Kb(base, kb)});
    }
    return runs;
}

void
printL1Size(const sim::GpuConfig &base, const Results &results,
            std::ostream &out)
{
    Table table({"app", "L1 size", "L1 miss", "cycles",
                 "speedup vs 16KB"});
    for (const char *name : kL1SizeApps) {
        const AppResult &app_base = results.at(name, base);
        for (uint32_t kb : kL1SizesKb) {
            const AppResult &app = results.at(name, withL1Kb(base, kb));
            table.addRow({name, std::to_string(kb) + "KB",
                          missCell(app, "l1"), cyclesCell(app),
                          speedupCell(app_base, app)});
        }
    }
    printTable(table, out,
               "\n(paper/Xu et al.: cache size is not correlated with "
               "graph-app performance)\n");
}

// ---------------------------------------------------------------------------
// Section X.A ablation: splitting non-deterministic loads into sub-warps.
// The paper suggests bounding the burst of memory requests a single
// non-deterministic load may issue so it stops monopolizing the LD/ST
// stage and the L1 resources. With the knob on, a non-deterministic load
// yields the LD/ST first stage after N requests. This compares the
// irregular apps (graph suite + spmv) against the baseline.

const std::vector<const char *> kWarpSplitApps = {"spmv", "bfs", "sssp",
                                                  "ccl",  "mst", "mis"};

sim::GpuConfig
warpSplit(sim::GpuConfig config)
{
    config.nondetSplitRequests = 4;
    return config;
}

std::vector<Run>
warpSplitRuns(const sim::GpuConfig &base)
{
    std::vector<Run> runs;
    for (const char *app : kWarpSplitApps) {
        runs.push_back({app, base});
        runs.push_back({app, warpSplit(base)});
    }
    return runs;
}

void
printWarpSplit(const sim::GpuConfig &base, const Results &results,
               std::ostream &out)
{
    Table table({"app", "D turnaround base", "D turnaround split",
                 "N turnaround base", "N turnaround split", "cycles base",
                 "cycles split"});
    for (const char *name : kWarpSplitApps) {
        const AppResult &app_base = results.at(name, base);
        const AppResult &app_split = results.at(name, warpSplit(base));
        auto turn = [](const AppResult &app, bool non_det) -> std::string {
            if (!finished(app))
                return "-";
            const auto &s = app.stats;
            const double cnt = s.get(classKey("turn.cnt", non_det));
            return Table::fmt(
                cnt ? s.get(classKey("turn.sum", non_det)) / cnt : 0.0, 1);
        };
        table.addRow({name, turn(app_base, false), turn(app_split, false),
                      turn(app_base, true), turn(app_split, true),
                      cyclesCell(app_base), cyclesCell(app_split)});
    }
    printTable(table, out);
}

} // namespace

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> registry = {
        perApp("table1_apps", "Table I: application characteristics",
               {.category = true,
                .columns = {{"ctas", integer}, {"threads/cta", integer},
                            {"warp insts", integer}, {"gld warps", integer},
                            {"gld fraction", percent},
                            {"verified", [](double v) -> std::string {
                                 return v ? "yes" : "NO";
                             }}},
                .values = [](const AppResult &app) -> Values {
                    const StatsSet &s = app.stats;
                    const double gld =
                        s.get("gload.warps.det") + s.get("gload.warps.nondet");
                    return {s.get("ctas_launched"), s.get("threads_per_cta"),
                            s.get("warp_insts"), gld, gld / s.get("warp_insts"),
                            app.verified ? 1.0 : 0.0};
                },
                .summaries = {{.means = {{"average global-load fraction: ",
                                          4, percent}},
                               .tail = " (paper: 6.43% on its inputs)"}}}),
        {"table2_config", "Table II: experiment environment", false, noRuns,
         printTable2},
        {"table3_profiler", "Table III: profiler counters", false,
         table3Runs, printTable3},
        perApp("fig1_load_classes",
               "Figure 1: deterministic vs non-deterministic global-load "
               "warps",
               {.category = true,
                .columns = {{"det fraction", percent},
                            {"nondet fraction", percent},
                            {"det warps", integer}, {"nondet warps", integer}},
                .values = [](const AppResult &app) -> Values {
                    const double det = app.stats.get("gload.warps.det");
                    const double nondet = app.stats.get("gload.warps.nondet");
                    const double total = det + nondet;
                    return {total ? det / total : 0.0,
                            total ? nondet / total : 0.0, det, nondet};
                }}),
        // Figure 2: memory requests per warp and per active thread of the
        // non-deterministic (N) and deterministic (D) loads.
        perApp("fig2_requests_per_warp",
               "Figure 2: memory requests per warp / active thread",
               {.columns = {{"N req/warp", fixed<2>}, {"D req/warp", fixed<2>},
                            {"N req/thread", fixed<3>},
                            {"D req/thread", fixed<3>}},
                .values = [](const AppResult &app) -> Values {
                    Values v;
                    for (const char *per : {"gload.warps", "gload.active"})
                        for (bool non_det : {true, false})
                            v.push_back(classRatio(app.stats, "gload.reqs",
                                                   per, non_det));
                    return v;
                }}),
        // Figure 3: L1 data-cache cycles by outcome: hit, hit-reserved,
        // miss and the reservation fails (tag, MSHR, interconnect).
        perApp("fig3_l1_cycles", "Figure 3: L1 data cache cycle breakdown",
               {.columns = {{"hit", percent}, {"hit_rsrv", percent},
                            {"miss", percent}, {"rsrv_fail_tag", percent},
                            {"rsrv_fail_mshr", percent},
                            {"rsrv_fail_icnt", percent}},
                .values = [](const AppResult &app) -> Values {
                    std::vector<double> v;
                    for (std::string o : {"hit", "hit_reserved", "miss",
                                          "fail_tag", "fail_mshr", "fail_icnt"})
                        v.push_back(app.stats.get("l1.outcome." + o));
                    const double sum = std::accumulate(v.begin(), v.end(), 0.0);
                    Values shares;
                    for (double cycles : v)
                        shares.push_back(sum ? cycles / sum : 0.0);
                    // The share lost to reservation fails: none without
                    // L1 cycles.
                    const double fails = v[3] + v[4] + v[5];
                    shares.push_back(sum ? std::optional(fails / sum)
                                         : std::nullopt);
                    return shares;
                },
                .summaries = {{.means = {{"average fraction of L1 cycles "
                                          "lost to reservation fails: ",
                                          6, percent}},
                               .tail = " (paper: ~70%)"}}}),
        // Figure 4: the fraction of cycles the first stage of the SP, SFU
        // and LD/ST units is idle; the summary averages the busy fractions.
        perApp("fig4_unit_idle", "Figure 4: function-unit idle fractions",
               {.columns = {{"SP idle", percent}, {"SFU idle", percent},
                            {"LD/ST idle", percent}},
                .values = [](const AppResult &app) -> Values {
                    const double cycles = app.stats.get("sm_cycles");
                    const double sp = app.stats.get("busy.sp") / cycles;
                    const double sfu = app.stats.get("busy.sfu") / cycles;
                    const double ldst = app.stats.get("busy.ldst") / cycles;
                    return {1.0 - sp, 1.0 - sfu, 1.0 - ldst, sp, sfu, ldst};
                },
                .summaries = {{.means = {{"average busy fractions: SP ", 3,
                                          percent},
                                         {", SFU ", 4, percent},
                                         {", LD/ST ", 5, percent}},
                               .tail = " (paper: 9.3% / 11.5% / 54.4%)"}}}),
        {"fig5_turnaround",
         "Figure 5: global-load turnaround decomposition (cycles)", false,
         suiteRuns, printFig5},
        {"fig6_turnaround_vs_reqs",
         "Figure 6: turnaround vs generated requests", false, fig6Runs,
         printFig6},
        {"fig7_gap_breakdown",
         "Figure 7: per-request-count gap breakdown (bfs, hottest "
         "non-deterministic load)",
         false, fig7Runs, printFig7},
        // Figure 8: L1 and L2 miss ratios per load class; none for a class
        // that never reached the level.
        perApp("fig8_miss_ratio", "Figure 8: L1/L2 miss ratios by load class",
               {.columns = {{"N L1 miss", percent}, {"D L1 miss", percent},
                            {"N L2 miss", percent}, {"D L2 miss", percent}},
                .values = [](const AppResult &app) -> Values {
                    Values v;
                    for (const std::string level : {"l1", "l2"})
                        for (bool non_det : {true, false}) {
                            const double access = app.stats.get(
                                classKey(level + ".access", non_det));
                            const double miss = app.stats.get(
                                classKey(level + ".miss", non_det));
                            v.push_back(access ? std::optional(miss / access)
                                               : std::nullopt);
                        }
                    return v;
                }}),
        perApp("fig9_shared_loads", "Figure 9: shared loads per global load",
               {.category = true,
                .columns = {{"shared loads", integer},
                            {"global loads", integer}, {"ratio", fixed<2>}},
                .values = [](const AppResult &app) -> Values {
                    const double sload = app.stats.get("sload.warps");
                    const double gload = app.stats.get("gload.warps.det") +
                                         app.stats.get("gload.warps.nondet");
                    return {sload, gload, gload ? sload / gload : 0.0};
                },
                .summaries = {{.byCategory = true,
                               .means = {{"average ratio: ", 2, fixed<2>}}},
                              {.tail = "(paper: image apps average ~2.5x)"}}}),
        // Figure 10: cold-miss ratio (distinct blocks per access) and
        // block reuse.
        perApp("fig10_cold_miss", "Figure 10: cold-miss ratio and block reuse",
               {.category = true,
                .columns = {{"blocks", integer}, {"accesses", integer},
                            {"cold miss ratio", percent},
                            {"accesses/block", fixed<1>}},
                .values = [](const AppResult &app) -> Values {
                    const StatsSet &s = app.stats;
                    return {s.get("blocks.count"), s.get("blocks.accesses"),
                            s.ratio("blocks.count", "blocks.accesses"),
                            s.ratio("blocks.accesses", "blocks.count")};
                },
                .summaries = {{.byCategory = true,
                               .means = {{"average cold-miss ratio: ", 2,
                                          percent}}},
                              {.tail = "(paper: 16% overall, image ~38.8%)"}}}),
        perApp("fig11_cta_sharing", "Figure 11: data blocks shared across CTAs",
               {.columns = {{"shared block ratio", percent},
                            {"shared access ratio", percent},
                            {"avg CTAs/shared block", fixed<1>}},
                .values = [](const AppResult &app) -> Values {
                    const StatsSet &s = app.stats;
                    return {s.ratio("blocks.shared", "blocks.count"),
                            s.ratio("blocks.shared_accesses",
                                    "blocks.accesses"),
                            s.ratio("blocks.shared_cta_sum",
                                    "blocks.shared")};
                },
                .summaries = {{.means = {{"averages: shared blocks ", 0,
                                          percent},
                                         {", accesses to shared blocks ", 1,
                                          percent}},
                               .tail = " (paper: 28.7% / 50.9%)"}}}),
        {"fig12_cta_distance",
         "Figure 12: CTA-distance frequency for shared blocks", false,
         suiteRuns, printFig12},
        // Figure X (not in the paper): per-app CPI stacks from the crit
        // profiler; every issue slot is an issue or a charged stall. Its
        // runs have the profiler on, so they share no cache entries.
        perApp("figX_cpi_stack",
               "Figure X: per-application CPI stacks (issue-slot "
               "attribution, crit profiler)",
               {.columns = {{"slots", integer}, {"issued%", fixed<1>},
                            {"data_hazard%", fixed<1>}, {"(det%", fixed<1>},
                            {"nondet%)", fixed<1>}, {"barrier%", fixed<1>},
                            {"ibuf%", fixed<1>}, {"pipe%", fixed<1>},
                            {"mshr%", fixed<1>}, {"icnt%", fixed<1>},
                            {"idle%", fixed<1>}},
                .values = [](const AppResult &app) -> Values {
                    const crit::CpiStack stack = crit::cpiStack(app.stats);
                    if (!stack.valid)
                        return Values(11);
                    auto stall = [&](crit::StallReason r) {
                        return stack.stall[static_cast<unsigned>(r)];
                    };
                    using enum crit::StallReason;
                    Values v = {stack.slots, stack.issued,
                                stall(DataHazard), stack.dhzByClass[1],
                                stack.dhzByClass[2], stall(Barrier),
                                stall(IbufferEmpty), stall(Pipeline),
                                stall(MshrFull), stall(IcntBackpressure),
                                stall(IdleNoCta)};
                    // Every count but the slots, in percent of the slots.
                    for (size_t i = 1; i < v.size(); ++i)
                        v[i] = 100.0 * *v[i] / stack.slots;
                    return v;
                }},
               true),
        {"ablation_cta_sched",
         "Ablation X.B: CTA scheduling policy (round-robin vs clustered "
         "pairs)",
         false, ctaSchedRuns, printCtaSched},
        {"ablation_l1_size",
         "Ablation: L1D capacity sweep (8KB / 16KB / 32KB / 64KB)", false,
         l1SizeRuns, printL1Size},
        {"ablation_semi_global_l2",
         "Ablation X.C: unified vs semi-global L2 (5 SMs per cluster)",
         false, semiGlobalRuns, printSemiGlobal},
        {"ablation_warp_split",
         "Ablation X.A: non-deterministic warp splitting (burst limit 4 "
         "requests)",
         false, warpSplitRuns, printWarpSplit},
    };
    return registry;
}

sim::GpuConfig
artifactBase(const Artifact &artifact)
{
    sim::GpuConfig base = defaultConfig();
    if (artifact.crit)
        base.crit = true;
    return base;
}

} // namespace gcl::bench
