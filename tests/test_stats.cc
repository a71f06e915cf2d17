/**
 * @file
 * SimStats tests: the turnaround decomposition, per-pc aggregation,
 * inter-CTA block tracking and the finalize() fold.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/stats.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using namespace gcl::sim;

WarpMemOp
makeOp(bool non_det, unsigned nreq, Cycle issue, Cycle first_accept,
       Cycle last_accept, Cycle done, ServiceLevel deepest)
{
    WarpMemOp op;
    op.isGlobalLoad = true;
    op.nonDet = non_det;
    op.activeThreads = 32;
    op.pc = 7;
    op.tIssue = issue;
    op.tFirstAccept = first_accept;
    op.tLastAccept = last_accept;
    op.tFirstData = done;
    op.tDone = done;
    op.deepest = deepest;
    op.numRequests = nreq;
    // What Sm::completeRequest accumulates per request that went past L1:
    // each of the nreq requests was accepted at first_accept and reached
    // its L2 at first_accept + 100.
    if (deepest != ServiceLevel::L1) {
        const GpuConfig config;
        const double nominal = config.icntLatency + config.ropLatency;
        op.gapIcntL2Sum = nreq * std::max(0.0, 100.0 - nominal);
        op.missedReqs = nreq;
    }
    return op;
}

TEST(SimStatsTest, TurnaroundDecompositionSumsToTotal)
{
    GpuConfig config;
    SimStats stats(config);
    const uint32_t kid = stats.kernelId("k");

    // issue 10, first accept 30, last accept 50, done 500, via DRAM.
    stats.gloadDone(makeOp(true, 4, 10, 30, 50, 500, ServiceLevel::Dram),
                    kid);
    stats.finalize();
    const auto &s = stats.set();

    EXPECT_EQ(s.get("turn.cnt.nondet"), 1.0);
    EXPECT_EQ(s.get("turn.sum.nondet"), 490.0);
    EXPECT_EQ(s.get("turn.rsrv_prev.nondet"), 20.0);
    EXPECT_EQ(s.get("turn.rsrv_cur.nondet"), 20.0);
    EXPECT_EQ(s.get("turn.unloaded.nondet"),
              config.unloadedDramLatency());
    // Components must add up exactly.
    EXPECT_DOUBLE_EQ(s.get("turn.unloaded.nondet") +
                         s.get("turn.rsrv_prev.nondet") +
                         s.get("turn.rsrv_cur.nondet") +
                         s.get("turn.mem.nondet"),
                     s.get("turn.sum.nondet"));
    // Fig 2 aggregates.
    EXPECT_EQ(s.get("gload.warps.nondet"), 1.0);
    EXPECT_EQ(s.get("gload.reqs.nondet"), 4.0);
    EXPECT_EQ(s.get("gload.active.nondet"), 32.0);
    EXPECT_EQ(s.get("gload.warps.det"), 0.0);
}

TEST(SimStatsTest, L1HitUsesHitLatencyAsUnloaded)
{
    GpuConfig config;
    SimStats stats(config);
    const uint32_t kid = stats.kernelId("k");
    stats.gloadDone(
        makeOp(false, 1, 10, 10, 10, 10 + config.l1HitLatency,
               ServiceLevel::L1),
        kid);
    stats.finalize();
    EXPECT_EQ(stats.set().get("turn.unloaded.det"), config.l1HitLatency);
    EXPECT_EQ(stats.set().get("turn.mem.det"), 0.0);
}

TEST(SimStatsTest, MergedOpChargesAtMostItsTurnaroundAsUnloaded)
{
    // An op whose line was already in flight (an L1-MSHR merge) finishes
    // sooner than its level's analytic unloaded latency: it is charged its
    // whole turnaround after the reservation stalls, and nothing is
    // wasted in memory.
    GpuConfig config;
    SimStats stats(config);
    const uint32_t kid = stats.kernelId("k");
    stats.gloadDone(makeOp(false, 2, 10, 14, 16, 46, ServiceLevel::Dram),
                    kid);
    stats.finalize();
    const auto &s = stats.set();
    ASSERT_LT(30.0, config.unloadedDramLatency());
    EXPECT_EQ(s.get("turn.unloaded.det"), 30.0);
    EXPECT_EQ(s.get("turn.mem.det"), 0.0);
    EXPECT_EQ(s.get("turn.unloaded.det") + s.get("turn.rsrv_prev.det") +
                  s.get("turn.rsrv_cur.det") + s.get("turn.mem.det"),
              s.get("turn.sum.det"));
}

TEST(SimStatsTest, TurnaroundComponentsAddUpOnWholeRuns)
{
    // Fig 5's columns are sums of integer cycle counts, so for every load
    // class they must add up to the total turnaround exactly.
    for (const char *app : {"gaus", "bpr"}) {
        gcl::workloads::SimContext ctx(gcl::workloads::byName(app),
                                       GpuConfig{});
        ctx.run();
        ASSERT_TRUE(ctx.verified()) << app;
        const gcl::StatsSet &s = ctx.stats();
        for (const std::string cls : {".det", ".nondet"}) {
            if (s.get("turn.cnt" + cls) == 0)
                continue;
            EXPECT_EQ(s.get("turn.unloaded" + cls) +
                          s.get("turn.rsrv_prev" + cls) +
                          s.get("turn.rsrv_cur" + cls) +
                          s.get("turn.mem" + cls),
                      s.get("turn.sum" + cls))
                << app << cls;
        }
    }
}

TEST(SimStatsTest, PerPcHistogramsKeyedByRequestCount)
{
    GpuConfig config;
    SimStats stats(config);
    const uint32_t kid = stats.kernelId("mykernel");
    stats.gloadDone(makeOp(true, 3, 0, 5, 9, 300, ServiceLevel::Dram),
                    kid);
    stats.gloadDone(makeOp(true, 3, 0, 5, 9, 500, ServiceLevel::Dram),
                    kid);
    stats.gloadDone(makeOp(true, 8, 0, 5, 30, 900, ServiceLevel::Dram),
                    kid);
    stats.finalize();
    const auto &s = stats.set();

    EXPECT_EQ(s.get("pc.mykernel#7.nondet"), 1.0);
    const auto &cnt = s.histOrEmpty("pc.mykernel#7.turn_cnt");
    EXPECT_EQ(cnt.weightAt(3), 2.0);
    EXPECT_EQ(cnt.weightAt(8), 1.0);
    const auto &sum = s.histOrEmpty("pc.mykernel#7.turn_sum");
    EXPECT_EQ(sum.weightAt(3), 800.0);
    EXPECT_EQ(sum.weightAt(8), 900.0);
}

TEST(SimStatsTest, HighPcExportsTheSameKeysAsALowPc)
{
    // The dense per-pc arrays take every pc: ops at pc 5000 must export
    // the pc.<kernel>#5000.* keys that the same ops export at pc 7.
    auto run = [](uint64_t pc) {
        GpuConfig config;
        SimStats stats(config);
        const uint32_t kid = stats.kernelId("k");
        for (unsigned nreq : {1u, 3u, 3u}) {
            WarpMemOp op =
                makeOp(true, nreq, 0, 5, 9, 300 + nreq, ServiceLevel::Dram);
            op.pc = pc;
            stats.gloadDone(op, kid);
        }
        stats.finalize();
        return stats.set().serialize();
    };
    const std::string low = run(7);
    std::string high = run(5000);
    ASSERT_NE(high.find("pc.k#5000.turn_cnt"), std::string::npos);
    for (size_t at; (at = high.find("#5000.")) != std::string::npos;)
        high.replace(at, 6, "#7.");
    EXPECT_EQ(high, low);
}

TEST(SimStatsTest, GapIcntL2AddsEachOpsMeanGap)
{
    // Fig 7's gap at icnt-L2 is a mean of per-op means: each op adds its
    // gap sum divided by its own missed-request count, and an op whose
    // requests all hit L1 adds nothing. (Pooling the sums, 15 / 5, would
    // give 3.)
    GpuConfig config;
    SimStats stats(config);
    const uint32_t kid = stats.kernelId("k");
    WarpMemOp first = makeOp(false, 4, 0, 5, 9, 300, ServiceLevel::Dram);
    first.gapIcntL2Sum = 10;
    first.missedReqs = 3;
    WarpMemOp second = makeOp(false, 4, 0, 5, 9, 400, ServiceLevel::L2);
    second.gapIcntL2Sum = 5;
    second.missedReqs = 2;
    const WarpMemOp hits =
        makeOp(false, 4, 0, 5, 9, 9 + config.l1HitLatency, ServiceLevel::L1);
    ASSERT_EQ(hits.missedReqs, 0u);
    stats.gloadDone(first, kid);
    stats.gloadDone(second, kid);
    stats.gloadDone(hits, kid);
    stats.finalize();
    const auto &s = stats.set();

    EXPECT_EQ(s.histOrEmpty("pc.k#7.turn_cnt").weightAt(4), 3.0);
    const auto &gap = s.histOrEmpty("pc.k#7.gap_icnt_l2");
    EXPECT_EQ(gap.numBuckets(), 1u);
    EXPECT_EQ(gap.weightAt(4), 10.0 / 3 + 5.0 / 2);
}

TEST(SimStatsTest, BlockTrackingCountsColdAndSharing)
{
    GpuConfig config;
    SimStats stats(config);
    // Block A touched by CTAs 0, 1, 5; block B only by CTA 2.
    stats.l1Access(false, true, 0x1000, 0);
    stats.l1Access(false, false, 0x1000, 1);
    stats.l1Access(true, false, 0x1000, 5);
    stats.l1Access(false, true, 0x2000, 2);
    stats.l1Access(false, false, 0x2000, 2);
    stats.finalize();
    const auto &s = stats.set();

    EXPECT_EQ(s.get("blocks.count"), 2.0);
    EXPECT_EQ(s.get("blocks.accesses"), 5.0);
    EXPECT_EQ(s.get("blocks.shared"), 1.0);
    EXPECT_EQ(s.get("blocks.shared_accesses"), 3.0);
    EXPECT_EQ(s.get("blocks.shared_cta_sum"), 3.0);

    // Distances among {0,1,5}: 1, 4, 5.
    const auto &dist = s.histOrEmpty("cta_distance");
    EXPECT_EQ(dist.weightAt(1), 1.0);
    EXPECT_EQ(dist.weightAt(4), 1.0);
    EXPECT_EQ(dist.weightAt(5), 1.0);

    // Class-specific sharing: det CTAs {0,1}, nondet CTAs {5}.
    EXPECT_EQ(s.histOrEmpty("cta_distance.det").weightAt(1), 1.0);
    EXPECT_TRUE(s.histOrEmpty("cta_distance.nondet").empty());

    // Reuse histogram: one block with 3 accesses, one with 2.
    const auto &reuse = s.histOrEmpty("block_reuse");
    EXPECT_EQ(reuse.weightAt(3), 1.0);
    EXPECT_EQ(reuse.weightAt(2), 1.0);

    // Fig 8 counters.
    EXPECT_EQ(s.get("l1.access.det"), 4.0);
    EXPECT_EQ(s.get("l1.miss.det"), 2.0);
    EXPECT_EQ(s.get("l1.access.nondet"), 1.0);
}

TEST(SimStatsTest, DuplicateCtaAccessCountedOnce)
{
    GpuConfig config;
    SimStats stats(config);
    for (int i = 0; i < 10; ++i)
        stats.l1Access(false, false, 0x1000, 3);
    stats.finalize();
    EXPECT_EQ(stats.set().get("blocks.shared"), 0.0);
    EXPECT_EQ(stats.set().get("blocks.accesses"), 10.0);
}

TEST(SimStatsTest, FinalizeIsIdempotent)
{
    GpuConfig config;
    SimStats stats(config);
    stats.hot.warpInsts = 42;
    stats.finalize();
    stats.finalize();
    EXPECT_EQ(stats.set().get("warp_insts"), 42.0);
}

TEST(SimStatsTest, KernelIdsInternStably)
{
    GpuConfig config;
    SimStats stats(config);
    const uint32_t a = stats.kernelId("alpha");
    const uint32_t b = stats.kernelId("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(stats.kernelId("alpha"), a);
}

TEST(SimStatsTest, L2AccessAttributionPerPartition)
{
    GpuConfig config;
    SimStats stats(config);
    stats.l2Access(0, true, true);
    stats.l2Access(0, true, false);
    stats.l2Access(3, false, false);
    stats.finalize();
    const auto &s = stats.set();
    EXPECT_EQ(s.get("l2.access.nondet"), 2.0);
    EXPECT_EQ(s.get("l2.miss.nondet"), 1.0);
    EXPECT_EQ(s.get("l2.queries.p0"), 2.0);
    EXPECT_EQ(s.get("l2.hits.p0"), 1.0);
    EXPECT_EQ(s.get("l2.queries.p3"), 1.0);
    EXPECT_EQ(s.get("l2.hits.p3"), 1.0);
}

} // namespace
