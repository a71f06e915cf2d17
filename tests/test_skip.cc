/**
 * @file
 * Per-unit sleep must be invisible: putting drained and frozen units to
 * sleep (config.cycleSkipping) is a pure host-side optimization, so a run
 * with skipping on must produce stats and trace streams BYTE-identical to
 * the eager reference, every unit ticked every cycle — with timeline
 * samples, under injected fault pressure, with a zero-latency or
 * backed-up crossbar, on op classes whose initiation interval exceeds
 * their latency, around CTA placements, and in how it trips the
 * --max-cycles deadline and the watchdog's hang.
 *
 * This is the bit-identity proof referenced from Gpu::launch and
 * config.hh; scripts/check.sh additionally diffs whole memo-cache
 * directories and asserts the >=2x throughput gate with perf_diff
 * --expect-speedup.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ptx/builder.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"
#include "trace/trace.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::sim::GpuConfig;
using gcl::trace::TraceEvent;
using gcl::workloads::SimContext;
using gcl::workloads::byName;

struct RunArtifacts
{
    std::string stats;
    std::vector<TraceEvent> trace;
    bool failed = false;
    bool verified = false;
    std::string failureKind;
    std::string failureMessage;
    std::string failureDetail;
};

/**
 * Run @p app under @p config and capture every artifact it produced,
 * sampling the occupancy timeline every @p timeline_interval cycles
 * (0: no timeline).
 */
RunArtifacts
runApp(const std::string &app, bool skipping, GpuConfig config = {},
       gcl::sim::Cycle timeline_interval = 0)
{
    config.cycleSkipping = skipping;
    SimContext ctx(byName(app), config);
    RunArtifacts out;
    ctx.enableTrace(timeline_interval,
                    [&out](const TraceEvent *events, size_t count) {
                        out.trace.insert(out.trace.end(), events,
                                         events + count);
                    },
                    0);
    ctx.run();
    out.stats = ctx.stats().serialize();
    out.failed = ctx.failed();
    out.verified = ctx.verified();
    out.failureKind = ctx.failure().kind;
    out.failureMessage = ctx.failure().message;
    out.failureDetail = ctx.failure().detail;
    return out;
}

/** runApp for a run that must complete and pass its CPU check. */
RunArtifacts
runClean(const std::string &app, bool skipping, GpuConfig config = {},
         gcl::sim::Cycle timeline_interval = 0)
{
    RunArtifacts out = runApp(app, skipping, config, timeline_interval);
    EXPECT_FALSE(out.failed) << app << ": " << out.failureMessage;
    EXPECT_TRUE(out.verified) << app;
    return out;
}

void
expectIdentical(const RunArtifacts &skip, const RunArtifacts &eager,
                const std::string &label)
{
    EXPECT_FALSE(skip.stats.empty()) << label;
    EXPECT_EQ(skip.stats, eager.stats)
        << label << ": cycle skipping changed the stats";
    ASSERT_EQ(skip.trace.size(), eager.trace.size())
        << label << ": cycle skipping changed the trace event count";
    EXPECT_EQ(std::memcmp(skip.trace.data(), eager.trace.data(),
                          eager.trace.size() * sizeof(TraceEvent)),
              0)
        << label << ": cycle skipping changed the trace stream";
}

TEST(Skip, ArtifactsBitIdenticalWithSkippingOnAndOff)
{
    // gaus drains its SMs between launches (long dead spans); bpr adds
    // atomic traffic through the partitions' ROP path. Timeline samples
    // (every 200 cycles, as check.sh's traced smoke run takes them) read
    // every unit's queues, so a sleeper must look exactly as the eager
    // loop leaves it at each sample. A zero-latency crossbar delivers a
    // flit in the cycle it was pushed, so a sleeping partition or SM must
    // wake and take it in that same cycle. A backed-up crossbar (every
    // queue one deep) freezes LD/ST heads on FailIcnt: sleeping SMs then
    // wake through their gate bit when an injection credit returns,
    // including a credit that came back while every unit slept. A machine
    // whose op classes keep their first stage busy longer than their
    // latency makes a ready warp wait on a stage edge no writeback marks:
    // the SM must wake at that edge, and both runs must finish (a tight
    // watchdog turns a missed edge into a hang rather than a long spin).
    GpuConfig zero_latency{};
    zero_latency.icntLatency = 0;
    GpuConfig backed_up{};
    backed_up.icntInjectQueueDepth = 1;
    backed_up.partQueueDepth = 1;
    backed_up.icntRespQueueDepth = 1;
    GpuConfig long_initiation{};
    long_initiation.applyOverrides(
        "op_int_alu=1:2,op_fp_mul=4:8,op_sfu=16:64,watchdog_budget=200000");
    for (const std::string app : {"gaus", "bpr"}) {
        expectIdentical(runClean(app, true), runClean(app, false), app);
        expectIdentical(runClean(app, true, {}, 200),
                        runClean(app, false, {}, 200),
                        app + " timeline every 200 cycles");
        expectIdentical(runClean(app, true, zero_latency),
                        runClean(app, false, zero_latency),
                        app + " icnt_latency=0");
        expectIdentical(runClean(app, true, backed_up),
                        runClean(app, false, backed_up),
                        app + " one-deep crossbar queues");
    }
    for (const std::string app : {"gaus", "bpr", "mriq"})
        expectIdentical(runClean(app, true, long_initiation),
                        runClean(app, false, long_initiation),
                        app + " initiation > latency");
}

TEST(Skip, ArtifactsBitIdenticalUnderInjectedFaults)
{
    // Seeded backpressure windows (MSHR/ICNT/DRAM refusals, dropped
    // fills from seed 42) repeatedly stall and wake the very units whose
    // next-event certificates decide how long they sleep. Fault windows
    // also disable the frozen-stall contract (MemPartition::ropHeadStall_,
    // Sm::ldstHeadStall_), so this leg proves the conservative fallback.
    GpuConfig faulted{};
    faulted.faultPlan = "seed=42;auto=3";
    expectIdentical(runClean("gaus", true, faulted),
                    runClean("gaus", false, faulted), "gaus faulted");
}

TEST(Skip, CritReportBitIdenticalWithSkippingOnAndOff)
{
    // The crit profiler charges one issue-slot disposition per SM-cycle;
    // slept spans are credited in bulk at wake, so the exported crit.*
    // schema (which crit_report renders) must not move.
    GpuConfig crit{};
    crit.crit = true;
    expectIdentical(runClean("gaus", true, crit),
                    runClean("gaus", false, crit), "gaus crit");
}

TEST(Skip, MaxCyclesDeadlineTripsAtTheSameCycle)
{
    // Sleepers must be settled before the --max-cycles deadline throws:
    // the timeout has to fire at exactly the cycle the eager loop
    // reports, with the same structured failure record and stats.
    GpuConfig budget{};
    budget.maxCycles = 2'000;
    const RunArtifacts skip = runApp("gaus", true, budget);
    const RunArtifacts eager = runApp("gaus", false, budget);
    EXPECT_EQ(skip.failureKind, "timeout");
    EXPECT_EQ(skip.failureKind, eager.failureKind);
    EXPECT_EQ(skip.failureMessage, eager.failureMessage)
        << "skipping moved the timeout cycle";
    EXPECT_EQ(skip.stats, eager.stats);

    // Asleep is not done: with every fill dropped the SMs sleep at
    // kNever while the crossbar is empty, and the run must still end in
    // the watchdog's hang at the eager loop's cycle, with the same
    // HangReport (per-SM crit summaries included).
    GpuConfig hang{};
    hang.faultPlan = "dropfill@0+1000000000";
    hang.watchdogInterval = 1024;
    hang.watchdogBudget = 100000;
    hang.crit = true;
    for (const std::string app : {"gaus", "bpr"}) {
        const RunArtifacts skip_hang = runApp(app, true, hang);
        const RunArtifacts eager_hang = runApp(app, false, hang);
        EXPECT_EQ(skip_hang.failureKind, "hang") << app;
        EXPECT_EQ(skip_hang.failureKind, eager_hang.failureKind) << app;
        EXPECT_EQ(skip_hang.failureMessage, eager_hang.failureMessage)
            << app << ": skipping moved the hang";
        EXPECT_FALSE(skip_hang.failureDetail.empty())
            << app << ": HangReport missing";
        EXPECT_EQ(skip_hang.failureDetail, eager_hang.failureDetail)
            << app << ": skipping changed the HangReport";
        // A hung run exports no stats; its trace up to the hang must match.
#ifndef GCL_TRACE_DISABLED
        ASSERT_FALSE(skip_hang.trace.empty()) << app;
#endif

        ASSERT_EQ(skip_hang.trace.size(), eager_hang.trace.size()) << app;
        EXPECT_EQ(std::memcmp(skip_hang.trace.data(), eager_hang.trace.data(),
                              eager_hang.trace.size() * sizeof(TraceEvent)),
                  0)
            << app << ": skipping changed the trace before the hang";
    }
}

TEST(Skip, DrainedSmCreditsIdleCyclesNotStageOccupancy)
{
    // One warp ends on an SFU op whose stage stays occupied long after
    // its result is back (initiation 64 > latency 1), so its SM drains
    // with a stage-free time still ahead and then sleeps while the store
    // crosses the memory system. The eager loop ticks a drained SM with
    // idleCycle(), which counts no stage occupancy: the sleep must credit
    // the same (Sm::idleCycles), not Sm::skipCycles' busy.sfu.
    using namespace gcl::ptx;
    KernelBuilder b("sfu_then_store", 1);
    const Reg out = b.ldParam(0);
    const Reg tid = b.globalTidX();
    const Reg root = b.sfu(Opcode::Sqrt, DataType::F32,
                           b.cvt(DataType::F32, DataType::U32, tid));
    b.st(MemSpace::Global, DataType::F32, b.elemAddr(out, tid, 4), root);
    const Kernel kernel = b.build();

    auto run = [&kernel](bool skipping) {
        GpuConfig config{};
        config.cycleSkipping = skipping;
        config.opTiming[static_cast<size_t>(gcl::sim::OpClass::Sfu)] = {1,
                                                                       64};
        gcl::sim::Gpu gpu(config);
        const uint64_t d_out = gpu.deviceMalloc(32 * 4);
        gpu.launch(kernel, gcl::sim::Dim3{1, 1, 1},
                   gcl::sim::Dim3{32, 1, 1}, {d_out});
        gpu.finalizeStats();
        return gpu.stats().set().serialize();
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(Skip, CtaPlacementWakesASleepingSm)
{
    // One SM, no memory traffic: CTA c runs a dependent ALU loop of
    // 4 * (c + 1) iterations and exits, so while its warps wait on the
    // chain every unit sleeps. A warp exit that retires a CTA frees a
    // slot the dispatcher fills the next cycle — with the SM left drained
    // (1024-thread CTAs, one resident) or still busy with a CTA whose
    // warp waits on its chain (one-warp CTAs, two resident). Either way
    // the placement must wake the SM in that cycle, and skip on and
    // eager must agree.
    using namespace gcl::ptx;
    KernelBuilder b("alu_loop", 0);
    const Reg x = b.globalTidX();
    const Reg trips = b.add(DataType::U32,
                            b.mul(DataType::U32,
                                  b.mov(DataType::U32, SpecialReg::CtaIdX),
                                  4),
                            4);
    const Reg i = b.mov(DataType::U32, 0);
    const Label top = b.newLabel();
    b.place(top);
    b.assign(DataType::U32, x, b.add(DataType::U32, x, 1));
    b.assign(DataType::U32, i, b.add(DataType::U32, i, 1));
    b.braIf(b.setp(CmpOp::Lt, DataType::U32, i, trips), top);
    const Kernel kernel = b.build();

    for (const uint32_t threads : {1024u, 32u}) {
        auto run = [&](bool skipping) {
            GpuConfig config{};
            config.numSms = 1;
            config.maxCtasPerSm = 2;
            config.cycleSkipping = skipping;
            gcl::sim::Gpu gpu(config);
            gpu.launch(kernel, gcl::sim::Dim3{6, 1, 1},
                       gcl::sim::Dim3{threads, 1, 1}, {});
            gpu.finalizeStats();
            return gpu.stats().set().serialize();
        };
        EXPECT_EQ(run(true), run(false)) << threads << "-thread CTAs";
    }
}

} // namespace
