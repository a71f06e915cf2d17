#include "paper.hh"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

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

/** Combined L1 or L2 miss ratio over both load classes. */
double
missRatio(const AppResult &app, const char *level)
{
    const std::string l = level;
    const double access = app.stats.get(l + ".access.det") +
                          app.stats.get(l + ".access.nondet");
    const double misses = app.stats.get(l + ".miss.det") +
                          app.stats.get(l + ".miss.nondet");
    return access ? misses / access : 0.0;
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
// Table I: application characteristics — CTA counts, CTA sizes, dynamic
// warp-instruction counts, global-load counts and the global-load
// fraction, per application.

void
printTable1(const sim::GpuConfig &base, const Results &results,
            std::ostream &out)
{
    Table table({"app", "category", "ctas", "threads/cta", "warp insts",
                 "gld warps", "gld fraction", "verified"});

    double total_fraction = 0.0;
    for (const AppResult *app : results.suite(base)) {
        const auto &s = app->stats;
        const double gld = s.get("gload.warps.det") +
                           s.get("gload.warps.nondet");
        const double fraction = gld / s.get("warp_insts");
        total_fraction += fraction;
        table.addRow({
            app->name,
            app->category,
            Table::fmtInt(static_cast<uint64_t>(s.get("ctas_launched"))),
            Table::fmtInt(static_cast<uint64_t>(s.get("threads_per_cta"))),
            Table::fmtInt(static_cast<uint64_t>(s.get("warp_insts"))),
            Table::fmtInt(static_cast<uint64_t>(gld)),
            Table::fmtPct(fraction),
            app->verified ? "yes" : "NO",
        });
    }

    printTable(table, out,
               "\naverage global-load fraction: " +
                   Table::fmtPct(total_fraction / 15.0) +
                   " (paper: 6.43% on its inputs)\n");
}

// ---------------------------------------------------------------------------
// Table II: the simulated device configuration (GPGPU-Sim v3.2.2, Tesla
// C2050-class defaults). Renders whatever machine description --machine /
// GCL_MACHINE resolved — the compiled-in C2050 when unset — so it doubles
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
    Table table({"app", "gld_request", "shared_load", "l1_gld_hit",
                 "l1_gld_miss", "l2_read_queries", "l2_read_hits"});

    for (const AppResult *app : results.suite(base)) {
        const auto counters =
            profiler::Counters::fromStats(app->stats, base.numPartitions);
        const double queries =
            std::accumulate(counters.l2ReadQueries.begin(),
                            counters.l2ReadQueries.end(), 0.0);
        const double hits = std::accumulate(counters.l2ReadHits.begin(),
                                            counters.l2ReadHits.end(), 0.0);
        table.addRow({
            app->name,
            Table::fmtInt(static_cast<uint64_t>(counters.gldRequest)),
            Table::fmtInt(static_cast<uint64_t>(counters.sharedLoad)),
            Table::fmtInt(static_cast<uint64_t>(counters.l1GlobalLoadHit)),
            Table::fmtInt(static_cast<uint64_t>(counters.l1GlobalLoadMiss)),
            Table::fmtInt(static_cast<uint64_t>(queries)),
            Table::fmtInt(static_cast<uint64_t>(hits)),
        });
    }

    const auto counters = profiler::Counters::fromStats(
        results.at(kSliceApp, base).stats, base.numPartitions);
    printTable(table, out,
               std::string("\n") + kSliceApp +
                   " per-slice profiler output:\n" + counters.report());
}

// ---------------------------------------------------------------------------
// Figure 1: distribution of dynamic global-load warps into deterministic
// and non-deterministic classes per application.
//
// Paper shape: linear/image apps are (almost) fully deterministic except
// spmv; graph apps run a large non-deterministic fraction but still keep
// a majority-deterministic static mix overall.

void
printFig1(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "category", "det fraction", "nondet fraction",
                 "det warps", "nondet warps"});
    for (const AppResult *app : results.suite(base)) {
        const double det = app->stats.get("gload.warps.det");
        const double nondet = app->stats.get("gload.warps.nondet");
        const double total = det + nondet;
        table.addRow({
            app->name,
            app->category,
            Table::fmtPct(total ? det / total : 0.0),
            Table::fmtPct(total ? nondet / total : 0.0),
            Table::fmtInt(static_cast<uint64_t>(det)),
            Table::fmtInt(static_cast<uint64_t>(nondet)),
        });
    }
    printTable(table, out);
}

// ---------------------------------------------------------------------------
// Figure 2: average memory requests generated per warp and per active
// thread, for non-deterministic (N) and deterministic (D) loads.
//
// Paper shape: D loads coalesce to ~1-2 requests/warp in every app; N
// loads generate many more (bfs approaches one request per active thread).

void
printFig2(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "N req/warp", "D req/warp", "N req/thread",
                 "D req/thread"});
    for (const AppResult *app : results.suite(base)) {
        const auto &s = app->stats;
        table.addRow({
            app->name,
            Table::fmt(classRatio(s, "gload.reqs", "gload.warps", true), 2),
            Table::fmt(classRatio(s, "gload.reqs", "gload.warps", false), 2),
            Table::fmt(classRatio(s, "gload.reqs", "gload.active", true), 3),
            Table::fmt(classRatio(s, "gload.reqs", "gload.active", false),
                       3),
        });
    }
    printTable(table, out);
}

// ---------------------------------------------------------------------------
// Figure 3: breakdown of L1 data-cache access cycles into hit /
// hit-reserved / miss / reservation-fail (tag, MSHR, interconnect).
//
// Paper shape: on average ~70% of L1 cycles are wasted on reservation
// failures, dominated by tag/MSHR shortage, and graph apps are the worst.

void
printFig3(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    static const char *kOutcomes[6] = {"hit", "hit_reserved", "miss",
                                       "fail_tag", "fail_mshr",
                                       "fail_icnt"};

    Table table({"app", "hit", "hit_rsrv", "miss", "rsrv_fail_tag",
                 "rsrv_fail_mshr", "rsrv_fail_icnt"});
    double wasted_sum = 0.0;
    int napps = 0;
    for (const AppResult *app : results.suite(base)) {
        double total = 0.0;
        double v[6];
        for (int o = 0; o < 6; ++o) {
            v[o] = app->stats.get(std::string("l1.outcome.") + kOutcomes[o]);
            total += v[o];
        }
        std::vector<std::string> row{app->name};
        for (int o = 0; o < 6; ++o)
            row.push_back(Table::fmtPct(total ? v[o] / total : 0.0));
        table.addRow(std::move(row));
        if (total > 0) {
            wasted_sum += (v[3] + v[4] + v[5]) / total;
            ++napps;
        }
    }
    printTable(table, out,
               "\naverage fraction of L1 cycles lost to reservation fails: " +
                   Table::fmtPct(napps ? wasted_sum / napps : 0.0) +
                   " (paper: ~70%)\n");
}

// ---------------------------------------------------------------------------
// Figure 4: fraction of cycles the first pipeline stage of each function
// unit (SP, SFU, LD/ST) is idle.
//
// Paper shape: the LD/ST unit is by far the busiest (~54% busy on
// average) although global loads are only ~6% of instructions; SP/SFU
// stay mostly idle.

void
printFig4(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "SP idle", "SFU idle", "LD/ST idle"});
    double busy_sum[3] = {0, 0, 0};
    for (const AppResult *app : results.suite(base)) {
        const double cycles = app->stats.get("sm_cycles");
        const double sp = app->stats.get("busy.sp") / cycles;
        const double sfu = app->stats.get("busy.sfu") / cycles;
        const double ldst = app->stats.get("busy.ldst") / cycles;
        busy_sum[0] += sp;
        busy_sum[1] += sfu;
        busy_sum[2] += ldst;
        table.addRow({
            app->name,
            Table::fmtPct(1.0 - sp),
            Table::fmtPct(1.0 - sfu),
            Table::fmtPct(1.0 - ldst),
        });
    }
    printTable(table, out,
               "\naverage busy fractions: SP " +
                   Table::fmtPct(busy_sum[0] / 15) + ", SFU " +
                   Table::fmtPct(busy_sum[1] / 15) + ", LD/ST " +
                   Table::fmtPct(busy_sum[2] / 15) +
                   " (paper: 9.3% / 11.5% / 54.4%)\n");
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

    Table table({"requests", "warps", "common latency", "gap at L1D",
                 "gap at icnt-L2", "gap at L2-icnt"});
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
// Figure 8: L1 and L2 miss ratios per load class.

void
printFig8(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "N L1 miss", "D L1 miss", "N L2 miss",
                 "D L2 miss"});
    for (const AppResult *app : results.suite(base)) {
        const auto &s = app->stats;
        auto cell = [&](const char *num, const char *den, bool non_det) {
            const double den_v = s.get(classKey(den, non_det));
            return den_v
                ? Table::fmtPct(s.get(classKey(num, non_det)) / den_v)
                : std::string("-");
        };
        table.addRow({
            app->name,
            cell("l1.miss", "l1.access", true),
            cell("l1.miss", "l1.access", false),
            cell("l2.miss", "l2.access", true),
            cell("l2.miss", "l2.access", false),
        });
    }
    printTable(table, out);
}

// ---------------------------------------------------------------------------
// Figure 9: shared-memory loads per global load, per application and per
// category.

void
printFig9(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "category", "shared loads", "global loads",
                 "ratio"});
    std::map<std::string, std::pair<double, int>> by_category;
    for (const AppResult *app : results.suite(base)) {
        const double sload = app->stats.get("sload.warps");
        const double gload = app->stats.get("gload.warps.det") +
                             app->stats.get("gload.warps.nondet");
        const double ratio = gload ? sload / gload : 0.0;
        by_category[app->category].first += ratio;
        by_category[app->category].second += 1;
        table.addRow({
            app->name,
            app->category,
            Table::fmtInt(static_cast<uint64_t>(sload)),
            Table::fmtInt(static_cast<uint64_t>(gload)),
            Table::fmt(ratio, 2),
        });
    }
    std::string note = "\n";
    for (const auto &[category, acc] : by_category)
        note += "category " + category + " average ratio: " +
                Table::fmt(acc.first / acc.second, 2) + '\n';
    printTable(table, out, note + "(paper: image apps average ~2.5x)\n");
}

// ---------------------------------------------------------------------------
// Figure 10: cold-miss ratio (distinct blocks per access) and block reuse.

void
printFig10(const sim::GpuConfig &base, const Results &results,
           std::ostream &out)
{
    Table table({"app", "category", "blocks", "accesses",
                 "cold miss ratio", "accesses/block"});
    std::map<std::string, std::pair<double, int>> cold_by_category;
    for (const AppResult *app : results.suite(base)) {
        const double blocks = app->stats.get("blocks.count");
        const double accesses = app->stats.get("blocks.accesses");
        const double cold = accesses ? blocks / accesses : 0.0;
        cold_by_category[app->category].first += cold;
        cold_by_category[app->category].second += 1;
        table.addRow({
            app->name,
            app->category,
            Table::fmtInt(static_cast<uint64_t>(blocks)),
            Table::fmtInt(static_cast<uint64_t>(accesses)),
            Table::fmtPct(cold),
            Table::fmt(blocks ? accesses / blocks : 0.0, 1),
        });
    }
    std::string note = "\n";
    for (const auto &[category, acc] : cold_by_category)
        note += "category " + category + " average cold-miss ratio: " +
                Table::fmtPct(acc.first / acc.second) + '\n';
    printTable(table, out, note + "(paper: 16% overall, image ~38.8%)\n");
}

// ---------------------------------------------------------------------------
// Figure 11: data blocks shared across CTAs, and the accesses to them.

void
printFig11(const sim::GpuConfig &base, const Results &results,
           std::ostream &out)
{
    Table table({"app", "shared block ratio", "shared access ratio",
                 "avg CTAs/shared block"});
    double block_ratio_sum = 0.0, access_ratio_sum = 0.0;
    for (const AppResult *app : results.suite(base)) {
        const auto &s = app->stats;
        const double block_ratio = s.ratio("blocks.shared", "blocks.count");
        const double access_ratio =
            s.ratio("blocks.shared_accesses", "blocks.accesses");
        block_ratio_sum += block_ratio;
        access_ratio_sum += access_ratio;
        table.addRow({
            app->name,
            Table::fmtPct(block_ratio),
            Table::fmtPct(access_ratio),
            Table::fmt(s.ratio("blocks.shared_cta_sum", "blocks.shared"), 1),
        });
    }
    printTable(table, out,
               "\naverages: shared blocks " +
                   Table::fmtPct(block_ratio_sum / 15) +
                   ", accesses to shared blocks " +
                   Table::fmtPct(access_ratio_sum / 15) +
                   " (paper: 28.7% / 50.9%)\n");
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
// Figure X: per-application CPI stacks over the criticality profiler (not
// in the paper; an extension enabled by gcl::crit). Every issue slot of
// every SM cycle is either an issue or a charged stall, so the per-reason
// shares decompose CPI exactly — the paper's Section IV claim that memory
// (data-hazard) stalls dominate, split by load class, becomes directly
// visible per application.
//
// Expected shape: the graph applications spend most slots on data hazards
// behind non-deterministic loads; the dense linear-algebra apps stall
// mostly behind deterministic loads or issue near their width. Its runs
// have the profiler on, so they never share cache entries with the
// profiler-off runs the other figures read.

void
printFigX(const sim::GpuConfig &base, const Results &results,
          std::ostream &out)
{
    Table table({"app", "slots", "issued%", "data_hazard%", "(det%",
                 "nondet%)", "barrier%", "ibuf%", "pipe%", "mshr%",
                 "icnt%", "idle%"});
    for (const AppResult *app : results.suite(base)) {
        const crit::CpiStack stack = crit::cpiStack(app->stats);
        if (!stack.valid) {
            out << app->name << ": no crit section (run failed?)\n";
            continue;
        }
        auto pct = [&](double v) {
            return Table::fmt(100.0 * v / stack.slots, 1);
        };
        using crit::StallReason;
        auto stall = [&](StallReason r) {
            return stack.stall[static_cast<unsigned>(r)];
        };
        table.addRow({
            app->name,
            Table::fmtInt(static_cast<uint64_t>(stack.slots)),
            pct(stack.issued),
            pct(stall(StallReason::DataHazard)),
            pct(stack.dhzByClass[1]),
            pct(stack.dhzByClass[2]),
            pct(stall(StallReason::Barrier)),
            pct(stall(StallReason::IbufferEmpty)),
            pct(stall(StallReason::Pipeline)),
            pct(stall(StallReason::MshrFull)),
            pct(stall(StallReason::IcntBackpressure)),
            pct(stall(StallReason::IdleNoCta)),
        });
    }
    printTable(table, out);
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
        const double cyc_b = with_base[i]->stats.get("cycles");
        const double cyc_v = with_variant[i]->stats.get("cycles");
        table.addRow({
            with_base[i]->name,
            Table::fmtPct(missRatio(*with_base[i], level)),
            Table::fmtPct(missRatio(*with_variant[i], level)),
            Table::fmtInt(static_cast<uint64_t>(cyc_b)),
            Table::fmtInt(static_cast<uint64_t>(cyc_v)),
            Table::fmt(cyc_v ? cyc_b / cyc_v : 0.0, 3),
        });
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
        const double base_cycles =
            results.at(name, base).stats.get("cycles");
        for (uint32_t kb : kL1SizesKb) {
            const AppResult &app = results.at(name, withL1Kb(base, kb));
            const double cycles = app.stats.get("cycles");
            table.addRow({
                name,
                std::to_string(kb) + "KB",
                Table::fmtPct(missRatio(app, "l1")),
                Table::fmtInt(static_cast<uint64_t>(cycles)),
                Table::fmt(cycles ? base_cycles / cycles : 0.0, 3),
            });
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
        auto turn = [](const AppResult &app, bool non_det) {
            const auto &s = app.stats;
            const double cnt = s.get(classKey("turn.cnt", non_det));
            return cnt ? s.get(classKey("turn.sum", non_det)) / cnt : 0.0;
        };
        table.addRow({
            name,
            Table::fmt(turn(app_base, false), 1),
            Table::fmt(turn(app_split, false), 1),
            Table::fmt(turn(app_base, true), 1),
            Table::fmt(turn(app_split, true), 1),
            Table::fmtInt(
                static_cast<uint64_t>(app_base.stats.get("cycles"))),
            Table::fmtInt(
                static_cast<uint64_t>(app_split.stats.get("cycles"))),
        });
    }
    printTable(table, out);
}

} // namespace

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> registry = {
        {"table1_apps", "Table I: application characteristics", false,
         suiteRuns, printTable1},
        {"table2_config", "Table II: experiment environment", false, noRuns,
         printTable2},
        {"table3_profiler", "Table III: profiler counters", false,
         table3Runs, printTable3},
        {"fig1_load_classes",
         "Figure 1: deterministic vs non-deterministic global-load warps",
         false, suiteRuns, printFig1},
        {"fig2_requests_per_warp",
         "Figure 2: memory requests per warp / active thread", false,
         suiteRuns, printFig2},
        {"fig3_l1_cycles", "Figure 3: L1 data cache cycle breakdown", false,
         suiteRuns, printFig3},
        {"fig4_unit_idle", "Figure 4: function-unit idle fractions", false,
         suiteRuns, printFig4},
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
        {"fig8_miss_ratio", "Figure 8: L1/L2 miss ratios by load class",
         false, suiteRuns, printFig8},
        {"fig9_shared_loads", "Figure 9: shared loads per global load",
         false, suiteRuns, printFig9},
        {"fig10_cold_miss", "Figure 10: cold-miss ratio and block reuse",
         false, suiteRuns, printFig10},
        {"fig11_cta_sharing", "Figure 11: data blocks shared across CTAs",
         false, suiteRuns, printFig11},
        {"fig12_cta_distance",
         "Figure 12: CTA-distance frequency for shared blocks", false,
         suiteRuns, printFig12},
        {"figX_cpi_stack",
         "Figure X: per-application CPI stacks (issue-slot attribution, "
         "crit profiler)",
         true, suiteRuns, printFigX},
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
