/**
 * @file
 * SimStats tests: the turnaround decomposition, per-pc aggregation,
 * inter-CTA block tracking, the finalize() fold and the snapshot load's
 * refusal of state save() cannot have written.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "guard/sim_error.hh"
#include "sim/stats.hh"
#include "snap/io.hh"

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

/**
 * Load @p stats from a fresh SimStats' snapshot whose trailing sections
 * are replaced: the fresh bytes are kept up to @p keep_tail bytes before
 * their end, and @p tail writes the rest.
 */
void
loadWithTail(SimStats &stats, size_t keep_tail,
             const std::function<void(gcl::snap::SnapWriter &)> &tail)
{
    gcl::snap::SnapWriter fresh;
    stats.save(fresh);
    gcl::snap::SnapWriter out;
    out.raw(fresh.buffer().data(), fresh.size() - keep_tail);
    tail(out);
    gcl::snap::SnapReader in(out.buffer().data(), out.size());
    stats.load(in);
}

/** Expect @p load to raise SimError{Snapshot} from the stats section. */
void
expectSnapshotError(const std::function<void()> &load, const char *what)
{
    try {
        load();
        ADD_FAILURE() << what << " was accepted";
    } catch (const gcl::SimError &e) {
        EXPECT_EQ(e.kind(), gcl::SimError::Kind::Snapshot) << what;
        EXPECT_EQ(e.component(), "stats") << what;
    }
}

TEST(SimStatsTest, SnapshotRejectsMalformedBlockTable)
{
    // save() ends with the block table: capacity, count, then each
    // occupied slot in ascending order. A fresh SimStats writes an empty
    // table (16 bytes); each case below replaces it. A capacity that is
    // not a power of two (1536: its mask reaches 1,024 slots while growth
    // waits for 1,076 blocks) or one past the 70% bound would let a later
    // probe spin forever, so load() must refuse it before allocating.
    const GpuConfig config;
    auto load = [&](uint64_t capacity, uint64_t count,
                    const std::vector<uint64_t> &slots) {
        SimStats stats(config);
        loadWithTail(stats, 2 * sizeof(uint64_t),
                     [&](gcl::snap::SnapWriter &out) {
                         out.u64(capacity);
                         out.u64(count);
                         for (uint64_t at : slots) {
                             out.u64(at);
                             out.u64(0x1000 + 128 * at);  // line address
                             out.u64(1);                  // accesses
                             for (uint64_t ctas : {1, 1, 0}) {
                                 out.u64(ctas);
                                 for (uint64_t c = 0; c < ctas; ++c)
                                     out.u32(0);
                             }
                         }
                     });
    };
    auto ascending = [](uint64_t n) {
        std::vector<uint64_t> slots(n);
        for (uint64_t i = 0; i < n; ++i)
            slots[i] = i;
        return slots;
    };

    EXPECT_NO_THROW(load(1024, 3, {0, 7, 1023}));
    EXPECT_NO_THROW(load(1024, 716, ascending(716)));
    EXPECT_NO_THROW(load(2048, 717, ascending(717)));

    expectSnapshotError([&] { load(1536, 3, {0, 7, 1023}); },
                        "capacity 1536");
    expectSnapshotError([&] { load(0, 0, {}); }, "capacity 0");
    expectSnapshotError([&] { load(512, 3, {0, 7, 500}); },
                        "capacity below the initial table");
    expectSnapshotError([&] { load(1024, 717, ascending(717)); },
                        "717 blocks in 1024 slots");
    expectSnapshotError([&] { load(1024, 1024, ascending(1024)); },
                        "a full table");
    expectSnapshotError([&] { load(4096, 717, ascending(717)); },
                        "a table twice its grown size");
    expectSnapshotError([&] { load(uint64_t{1} << 62, 3, {0, 7, 9}); },
                        "capacity 2^62");
    expectSnapshotError([&] { load(1024, 5, {0, 7, 9}); },
                        "a count past the section's end");
    expectSnapshotError([&] { load(1024, 3, {0, 7, 1024}); },
                        "slot 1024 of 1024");
    expectSnapshotError([&] { load(1024, 3, {0, 9, 7}); },
                        "descending slots");
    expectSnapshotError([&] { load(1024, 3, {0, 7, 7}); },
                        "a repeated slot");

    // A CTA list longer than the bytes left is refused before its vector
    // is sized.
    expectSnapshotError(
        [&] {
            SimStats stats(config);
            loadWithTail(stats, 2 * sizeof(uint64_t),
                         [](gcl::snap::SnapWriter &out) {
                             out.u64(1024);
                             out.u64(1);
                             out.u64(0);
                             out.u64(0x1000);
                             out.u64(1);
                             out.u64(uint64_t{1} << 40);
                         });
        },
        "a CTA list of 2^40 entries");
}

TEST(SimStatsTest, SnapshotRejectsOversizedPcTables)
{
    // Before the block table come the dense per-pc tables (one per
    // interned kernel, at most kDensePcLimit = 4096 pcs each) and the
    // spill map. Replace all three trailing sections of a SimStats that
    // interned one kernel.
    const GpuConfig config;
    auto load = [&](uint64_t kernels, uint64_t pcs, uint64_t used,
                    uint32_t pc) {
        SimStats stats(config);
        stats.kernelId("k");
        loadWithTail(stats, 4 * sizeof(uint64_t),
                     [&](gcl::snap::SnapWriter &out) {
                         out.u64(kernels);
                         for (uint64_t k = 0; k < kernels; ++k) {
                             out.u64(pcs);
                             out.u64(used);
                             for (uint64_t i = 0; i < used; ++i) {
                                 out.u32(pc);
                                 out.u8(0);
                                 out.u32(0);
                             }
                         }
                         out.u64(0);       // spilled pcs
                         out.u64(1024);    // empty block table
                         out.u64(0);
                     });
    };
    EXPECT_NO_THROW(load(1, 4096, 1, 4095));
    expectSnapshotError([&] { load(2, 1, 0, 0); }, "2 kernels of 1");
    expectSnapshotError([&] { load(1, 4097, 0, 0); }, "4097 dense pcs");
    expectSnapshotError([&] { load(1, 8, 1, 8); }, "pc 8 of 8");
}

} // namespace
