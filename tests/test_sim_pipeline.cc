/**
 * @file
 * SM pipeline integration tests: scoreboard dependences, divergence
 * results, barriers as producer/consumer synchronization, per-CTA shared
 * memory isolation, multi-CTA launches, stat plausibility, and the warp
 * scheduler's ready-warp masks (barriers across schedulers, multi-word
 * masks, and GTO byte-identity pins).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "ptx/builder.hh"
#include "sim/gpu.hh"
#include "sim/machine.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using namespace gcl;
using namespace gcl::ptx;
using DT = DataType;

TEST(SimPipeline, LoadUseDependencyThroughScoreboard)
{
    // r = a[tid]; r2 = r * 3; b[tid] = r2 — RAW through a global load.
    KernelBuilder b("raw", 2);
    Reg p_a = b.ldParam(0);
    Reg p_b = b.ldParam(1);
    Reg tid = b.globalTidX();
    Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_a, tid, 4));
    Reg v3 = b.mul(DT::U32, v, 3);
    b.st(MemSpace::Global, DT::U32, b.elemAddr(p_b, tid, 4), v3);
    Kernel k = b.build();

    sim::Gpu gpu;
    std::vector<uint32_t> a(256);
    for (uint32_t i = 0; i < a.size(); ++i)
        a[i] = i + 1;
    const uint64_t d_a = gpu.deviceMalloc(a.size() * 4);
    const uint64_t d_b = gpu.deviceMalloc(a.size() * 4);
    gpu.memcpyToDevice(d_a, a.data(), a.size() * 4);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{256, 1, 1}, {d_a, d_b});

    std::vector<uint32_t> out(a.size());
    gpu.memcpyToHost(out.data(), d_b, out.size() * 4);
    for (uint32_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(out[i], (i + 1) * 3);
}

TEST(SimPipeline, DivergentBranchesComputeBothSides)
{
    // Even tids write 2*tid, odd tids write 3*tid.
    KernelBuilder b("div", 1);
    Reg out = b.ldParam(0);
    Reg tid = b.globalTidX();
    Reg bit = b.and_(DT::U32, tid, 1);
    Reg is_odd = b.setp(CmpOp::Ne, DT::U32, bit, 0);
    Label odd = b.newLabel();
    Label join = b.newLabel();
    b.braIf(is_odd, odd);
    {
        b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4),
             b.mul(DT::U32, tid, 2));
        b.bra(join);
    }
    b.place(odd);
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4),
         b.mul(DT::U32, tid, 3));
    b.place(join);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(64 * 4);
    gpu.launch(k, sim::Dim3{2, 1, 1}, sim::Dim3{32, 1, 1}, {d});
    std::vector<uint32_t> r(64);
    gpu.memcpyToHost(r.data(), d, 64 * 4);
    for (uint32_t i = 0; i < 64; ++i)
        ASSERT_EQ(r[i], (i % 2) ? i * 3 : i * 2) << i;
}

TEST(SimPipeline, BarrierOrdersProducerConsumerAcrossWarps)
{
    // Warp w writes smem[w]; after the barrier every thread reads the
    // OTHER warp's slot. Requires real inter-warp synchronization.
    KernelBuilder b("barrier", 1, 64);
    Reg out = b.ldParam(0);
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    Reg warp = b.shr(DT::U32, tid, 5);
    Reg lane0 = b.and_(DT::U32, tid, 31);
    Label skip = b.newLabel();
    Reg not_leader = b.setp(CmpOp::Ne, DT::U32, lane0, 0);
    b.braIf(not_leader, skip);
    {
        Reg val = b.add(DT::U32, warp, 100);
        b.st(MemSpace::Shared, DT::U32,
             b.shl(DT::U64, b.cvt(DT::U64, DT::U32, warp), 2), val);
    }
    b.place(skip);
    b.bar();
    Reg other = b.xor_(DT::U32, warp, 1);
    Reg got = b.ld(MemSpace::Shared, DT::U32,
                   b.shl(DT::U64, b.cvt(DT::U64, DT::U32, other), 2));
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4), got);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(64 * 4);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{64, 1, 1}, {d});
    std::vector<uint32_t> r(64);
    gpu.memcpyToHost(r.data(), d, 64 * 4);
    for (uint32_t i = 0; i < 64; ++i)
        ASSERT_EQ(r[i], 100u + ((i >> 5) ^ 1)) << i;
}

TEST(SimPipeline, SharedMemoryIsPrivatePerCta)
{
    // Each CTA writes its ctaid into smem[0] and reads it back after a
    // barrier; values must not leak between CTAs even when many CTAs run
    // concurrently on the same SM.
    KernelBuilder b("smem_iso", 1, 64);
    Reg out = b.ldParam(0);
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    Label skip = b.newLabel();
    Reg not_leader = b.setp(CmpOp::Ne, DT::U32, tid, 0);
    b.braIf(not_leader, skip);
    b.st(MemSpace::Shared, DT::U32, b.mov(DT::U64, 0),
         b.mov(DT::U32, SpecialReg::CtaIdX));
    b.place(skip);
    b.bar();
    Reg got = b.ld(MemSpace::Shared, DT::U32, b.mov(DT::U64, 0));
    Reg gtid = b.globalTidX();
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, gtid, 4), got);
    Kernel k = b.build();

    sim::Gpu gpu;
    constexpr uint32_t kCtas = 64;
    const uint64_t d = gpu.deviceMalloc(kCtas * 32 * 4);
    gpu.launch(k, sim::Dim3{kCtas, 1, 1}, sim::Dim3{32, 1, 1}, {d});
    std::vector<uint32_t> r(kCtas * 32);
    gpu.memcpyToHost(r.data(), d, r.size() * 4);
    for (uint32_t i = 0; i < r.size(); ++i)
        ASSERT_EQ(r[i], i / 32) << i;
}

TEST(SimPipeline, ManyCtasAllComplete)
{
    KernelBuilder b("many", 1);
    Reg out = b.ldParam(0);
    Reg gtid = b.globalTidX();
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, gtid, 4),
         b.add(DT::U32, gtid, 7));
    Kernel k = b.build();

    sim::Gpu gpu;
    constexpr uint32_t kThreads = 200 * 96;
    const uint64_t d = gpu.deviceMalloc(kThreads * 4);
    gpu.launch(k, sim::Dim3{200, 1, 1}, sim::Dim3{96, 1, 1}, {d});
    std::vector<uint32_t> r(kThreads);
    gpu.memcpyToHost(r.data(), d, r.size() * 4);
    for (uint32_t i = 0; i < kThreads; ++i)
        ASSERT_EQ(r[i], i + 7);
}

TEST(SimPipeline, AtomicContentionAcrossCtas)
{
    KernelBuilder b("contend", 1);
    Reg counter = b.ldParam(0);
    (void)b.atom(AtomOp::Add, DT::U32, counter, 1);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(4);
    gpu.launch(k, sim::Dim3{32, 1, 1}, sim::Dim3{64, 1, 1}, {d});
    uint32_t r = 0;
    gpu.memcpyToHost(&r, d, 4);
    EXPECT_EQ(r, 32u * 64u);
}

TEST(SimPipeline, BackToBackLaunchesObserveEachOther)
{
    // Launch 1 doubles, launch 2 adds 5: tests full drain between
    // launches.
    KernelBuilder b1("dbl", 1);
    {
        Reg p = b1.ldParam(0);
        Reg tid = b1.globalTidX();
        Reg addr = b1.elemAddr(p, tid, 4);
        Reg v = b1.ld(MemSpace::Global, DT::U32, addr);
        b1.st(MemSpace::Global, DT::U32, addr, b1.mul(DT::U32, v, 2));
    }
    Kernel dbl = b1.build();
    KernelBuilder b2("add5", 1);
    {
        Reg p = b2.ldParam(0);
        Reg tid = b2.globalTidX();
        Reg addr = b2.elemAddr(p, tid, 4);
        Reg v = b2.ld(MemSpace::Global, DT::U32, addr);
        b2.st(MemSpace::Global, DT::U32, addr, b2.add(DT::U32, v, 5));
    }
    Kernel add5 = b2.build();

    sim::Gpu gpu;
    std::vector<uint32_t> init(128);
    for (uint32_t i = 0; i < init.size(); ++i)
        init[i] = i;
    const uint64_t d = gpu.deviceMalloc(init.size() * 4);
    gpu.memcpyToDevice(d, init.data(), init.size() * 4);
    gpu.launch(dbl, sim::Dim3{1, 1, 1}, sim::Dim3{128, 1, 1}, {d});
    gpu.launch(add5, sim::Dim3{1, 1, 1}, sim::Dim3{128, 1, 1}, {d});

    std::vector<uint32_t> r(init.size());
    gpu.memcpyToHost(r.data(), d, r.size() * 4);
    for (uint32_t i = 0; i < r.size(); ++i)
        ASSERT_EQ(r[i], i * 2 + 5);
}

TEST(SimPipeline, StatsArePlausible)
{
    KernelBuilder b("stats", 1);
    Reg out = b.ldParam(0);
    Reg tid = b.globalTidX();
    Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4));
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4),
         b.add(DT::U32, v, 1));
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(1024 * 4);
    gpu.launch(k, sim::Dim3{4, 1, 1}, sim::Dim3{256, 1, 1}, {d});
    gpu.finalizeStats();
    const auto &s = gpu.stats().set();

    EXPECT_EQ(s.get("launches"), 1.0);
    EXPECT_EQ(s.get("ctas_launched"), 4.0);
    EXPECT_EQ(s.get("threads_per_cta"), 256.0);
    EXPECT_GT(s.get("cycles"), 0.0);
    // 32 warps, each issues exactly one coalesced global load.
    EXPECT_EQ(s.get("gload.warps.det"), 32.0);
    EXPECT_EQ(s.get("gload.reqs.det"), 32.0);
    EXPECT_EQ(s.get("gload.active.det"), 1024.0);
    EXPECT_EQ(s.get("gstore.warps"), 32.0);
    // Every accessed 128-byte block belongs to the 4KB array.
    EXPECT_EQ(s.get("blocks.count"), 32.0);
    // Turnaround must be at least the unloaded DRAM path for cold misses.
    const double avg_turn = s.ratio("turn.sum.det", "turn.cnt.det");
    EXPECT_GE(avg_turn, gpu.config().unloadedDramLatency());
    // sm_cycles covers all SMs for the whole launch.
    EXPECT_EQ(s.get("sm_cycles"),
              s.get("cycles") * gpu.config().numSms);
}

TEST(SimPipeline, GtoSchedulerProducesSameResults)
{
    KernelBuilder b("gto", 1);
    Reg out = b.ldParam(0);
    Reg tid = b.globalTidX();
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4),
         b.mul(DT::U32, tid, 5));
    Kernel k = b.build();

    sim::GpuConfig config;
    config.warpSched = sim::WarpSchedPolicy::GreedyThenOldest;
    sim::Gpu gpu(config);
    const uint64_t d = gpu.deviceMalloc(512 * 4);
    gpu.launch(k, sim::Dim3{2, 1, 1}, sim::Dim3{256, 1, 1}, {d});
    std::vector<uint32_t> r(512);
    gpu.memcpyToHost(r.data(), d, r.size() * 4);
    for (uint32_t i = 0; i < r.size(); ++i)
        ASSERT_EQ(r[i], i * 5);
}

TEST(SimPipeline, RepeatedLaunchesKeepBoundedLatency)
{
    // Regression: the cycle clock is global and monotonic across launches
    // while DRAM busy-until stamps persist. With a per-launch clock reset
    // (the original bug) the second launch saw DRAM "busy" tens of
    // thousands of cycles into its future and crawled.
    KernelBuilder b("relaunch", 1);
    Reg out = b.ldParam(0);
    Reg tid = b.globalTidX();
    Reg addr = b.elemAddr(out, tid, 4);
    Reg v = b.ld(MemSpace::Global, DT::U32, addr);
    b.st(MemSpace::Global, DT::U32, addr, b.add(DT::U32, v, 1));
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(4096 * 4);
    gpu.launch(k, sim::Dim3{16, 1, 1}, sim::Dim3{256, 1, 1}, {d});
    const auto first = gpu.lastLaunchCycles();
    gpu.launch(k, sim::Dim3{16, 1, 1}, sim::Dim3{256, 1, 1}, {d});
    const auto second = gpu.lastLaunchCycles();
    // Warm caches make the relaunch at most as slow as the cold run,
    // modulo small scheduling noise.
    EXPECT_LE(second, first + first / 4);

    std::vector<uint32_t> r(4096);
    gpu.memcpyToHost(r.data(), d, r.size() * 4);
    for (uint32_t i = 0; i < r.size(); ++i)
        ASSERT_EQ(r[i], 2u);
}

TEST(SimPipeline, UncoalescedLoadGeneratesPerLaneRequests)
{
    // Stride-128 gather: every active lane touches its own line, so one
    // warp load becomes 32 requests (the Fig 2 worst case).
    KernelBuilder b("stride", 1);
    Reg out = b.ldParam(0);
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    Reg idx = b.mul(DT::U32, tid, 32);  // 32 words = 128 bytes apart
    Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(out, idx, 4));
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, idx, 4),
         b.add(DT::U32, v, 1));
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(32 * 128);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{32, 1, 1}, {d});
    gpu.finalizeStats();
    EXPECT_EQ(gpu.stats().set().get("gload.reqs.det"), 32.0);
    EXPECT_EQ(gpu.stats().set().get("gload.warps.det"), 1.0);
}

TEST(SimPipeline, WarpSplitKeepsResultsIdentical)
{
    // The X.A sub-warp splitter is a pure scheduling change: functional
    // results must not move.
    auto run_with = [](unsigned split) {
        KernelBuilder b("split", 2);
        Reg p_idx = b.ldParam(0);
        Reg p_out = b.ldParam(1);
        Reg tid = b.globalTidX();
        Reg idx =
            b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_idx, tid, 4));
        Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_idx, idx, 4));
        b.st(MemSpace::Global, DT::U32, b.elemAddr(p_out, tid, 4), v);
        Kernel k = b.build();

        sim::GpuConfig config;
        config.nondetSplitRequests = split;
        sim::Gpu gpu(config);
        std::vector<uint32_t> idx_host(256);
        for (uint32_t i = 0; i < 256; ++i)
            idx_host[i] = (i * 97) % 256;
        const uint64_t d_idx = gpu.deviceMalloc(256 * 4);
        gpu.memcpyToDevice(d_idx, idx_host.data(), 256 * 4);
        const uint64_t d_out = gpu.deviceMalloc(256 * 4);
        gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{256, 1, 1},
                   {d_idx, d_out});
        std::vector<uint32_t> out(256);
        gpu.memcpyToHost(out.data(), d_out, 256 * 4);
        return out;
    };
    EXPECT_EQ(run_with(0), run_with(4));
}

TEST(SimPipeline, BarrierAcrossFourSchedulersUnderLrrAndGto)
{
    // Eight warps per CTA on four schedulers: every scheduler owns two
    // warps of each CTA, so each barrier release wakes warps on all four.
    // Lane 0 diverges before the first barrier. Warp 7 skips both
    // barriers and exits after a global round trip, while the other
    // seven wait at the first one — so that release comes from the exit,
    // and the second from the last arrival.
    KernelBuilder b("bar4", 1, 8 * 4);
    Reg out = b.ldParam(0);
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    Reg warp = b.shr(DT::U32, tid, 5);
    Reg lane = b.and_(DT::U32, tid, 31);
    Reg gtid = b.globalTidX();
    Label work = b.newLabel();
    b.braIf(b.setp(CmpOp::Ne, DT::U32, warp, 7), work);
    {
        Reg addr = b.elemAddr(out, gtid, 4);
        Reg v = b.ld(MemSpace::Global, DT::U32, addr);
        b.st(MemSpace::Global, DT::U32, addr, b.add(DT::U32, v, 1));
        b.exit();
    }
    b.place(work);
    Label skip = b.newLabel();
    b.braIf(b.setp(CmpOp::Ne, DT::U32, lane, 0), skip);
    b.st(MemSpace::Shared, DT::U32,
         b.shl(DT::U64, b.cvt(DT::U64, DT::U32, warp), 2),
         b.add(DT::U32, warp, 100));
    b.place(skip);
    b.bar();
    Reg other = b.rem(DT::U32, b.add(DT::U32, warp, 3), 7);
    Reg got = b.ld(MemSpace::Shared, DT::U32,
                   b.shl(DT::U64, b.cvt(DT::U64, DT::U32, other), 2));
    b.bar();
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, gtid, 4),
         b.add(DT::U32, got, lane));
    Kernel k = b.build();

    for (auto policy : {sim::WarpSchedPolicy::LooseRoundRobin,
                        sim::WarpSchedPolicy::GreedyThenOldest}) {
        sim::GpuConfig config;
        config.numSchedulers = 4;
        config.warpSched = policy;
        sim::Gpu gpu(config);
        constexpr uint32_t kThreads = 4 * 256;
        const std::vector<uint32_t> zeros(kThreads, 0);
        const uint64_t d = gpu.deviceMalloc(kThreads * 4);
        gpu.memcpyToDevice(d, zeros.data(), kThreads * 4);
        gpu.launch(k, sim::Dim3{4, 1, 1}, sim::Dim3{256, 1, 1}, {d});
        std::vector<uint32_t> r(kThreads);
        gpu.memcpyToHost(r.data(), d, kThreads * 4);
        for (uint32_t i = 0; i < kThreads; ++i) {
            const uint32_t w = (i % 256) / 32;
            const uint32_t expect =
                w == 7 ? 1u : 100u + (w + 3) % 7 + i % 32;
            ASSERT_EQ(r[i], expect)
                << "thread " << i << " policy "
                << static_cast<int>(policy);
        }
    }
}

TEST(SimPipeline, MoreThan64SlotsOnOneScheduler)
{
    // 4096 threads per SM on one scheduler: eight resident 512-thread
    // CTAs per SM fill 128 warp slots, two 64-bit ready-mask words. The
    // load-use stall and the barrier make warps in both words wait and
    // wake.
    KernelBuilder b("wide", 1);
    Reg out = b.ldParam(0);
    Reg gtid = b.globalTidX();
    Reg addr = b.elemAddr(out, gtid, 4);
    Reg v = b.ld(MemSpace::Global, DT::U32, addr);
    b.bar();
    b.st(MemSpace::Global, DT::U32, addr,
         b.add(DT::U32, b.mul(DT::U32, v, 3), 1));
    Kernel k = b.build();

    for (auto policy : {sim::WarpSchedPolicy::LooseRoundRobin,
                        sim::WarpSchedPolicy::GreedyThenOldest}) {
        sim::GpuConfig config;
        config.numSms = 2;
        config.maxThreadsPerSm = 4096;
        config.numSchedulers = 1;
        config.warpSched = policy;
        sim::Gpu gpu(config);
        constexpr uint32_t kCtas = 16;
        constexpr uint32_t kThreads = kCtas * 512;
        std::vector<uint32_t> init(kThreads);
        for (uint32_t i = 0; i < kThreads; ++i)
            init[i] = i;
        const uint64_t d = gpu.deviceMalloc(kThreads * 4);
        gpu.memcpyToDevice(d, init.data(), kThreads * 4);
        gpu.launch(k, sim::Dim3{kCtas, 1, 1}, sim::Dim3{512, 1, 1}, {d});
        std::vector<uint32_t> r(kThreads);
        gpu.memcpyToHost(r.data(), d, kThreads * 4);
        for (uint32_t i = 0; i < kThreads; ++i)
            ASSERT_EQ(r[i], i * 3 + 1)
                << "thread " << i << " policy "
                << static_cast<int>(policy);
    }
}

std::string
statsDigest(const std::string &text)
{
    uint64_t hash = 1469598103934665603ull;   // FNV-1a
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
}

TEST(SimPipeline, GtoStatsPinnedOnModernCore)
{
    // Byte-identity pins for the greedy-then-oldest scheduler: FNV-1a of
    // StatsSet::serialize() on modern-core (four GTO schedulers). The
    // committed goldens all run C2050, whose scheduler is LRR.
    const struct
    {
        const char *app;
        const char *digest;
    } pins[] = {
        {"bpr", "cdd13a6dbe03969d"},
        {"gaus", "5aff7c2835d17489"},
        {"srad", "5efcfb76b37a4511"},
    };
    const sim::GpuConfig config = sim::loadMachineFile(
        std::string(GCL_REPO_CONFIGS_DIR) + "/modern-core.config");
    ASSERT_EQ(config.warpSched, sim::WarpSchedPolicy::GreedyThenOldest);
    for (const auto &pin : pins) {
        workloads::SimContext ctx(workloads::byName(pin.app), config);
        ctx.run();
        ASSERT_FALSE(ctx.failed()) << pin.app << ": "
                                   << ctx.failure().message;
        EXPECT_TRUE(ctx.verified()) << pin.app;
        EXPECT_EQ(statsDigest(ctx.stats().serialize()), pin.digest)
            << pin.app;
    }
}

TEST(SimPipeline, DeterministicAcrossRuns)
{
    auto run_once = [] {
        sim::Gpu gpu;
        KernelBuilder b("det", 1);
        Reg out = b.ldParam(0);
        Reg tid = b.globalTidX();
        Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4));
        b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4),
             b.add(DT::U32, v, 1));
        Kernel k = b.build();
        const uint64_t d = gpu.deviceMalloc(2048 * 4);
        gpu.launch(k, sim::Dim3{8, 1, 1}, sim::Dim3{256, 1, 1}, {d});
        return gpu.lastLaunchCycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
