/**
 * @file
 * Determinism of the intra-run parallel tick: simulating one application
 * with sim_threads > 1 (SMs and memory partitions ticking concurrently,
 * with a coordinator commit phase) must produce *bit-identical* results to
 * the serial loop — same stats, same trace bytes (ids, order, payloads),
 * same failure records, same HangReport. This is the contract that makes
 * `--sim-threads=N` a pure wall-clock knob, excluded from the config
 * fingerprint (DESIGN.md, "Intra-run determinism contract").
 *
 * Uses the three smallest Table I applications; scripts/check.sh
 * additionally diffs whole cache directories from --sim-threads=1 vs =4
 * bench runs, and the TSan preset runs these tests plus a threaded bench
 * sweep under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

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

const std::vector<std::string> kSmallApps = {"gaus", "bpr", "dwt"};
const unsigned kThreadCounts[] = {2, 4};

/** Everything observable from one run, in comparable form. */
struct RunOutput
{
    std::string stats;        //!< StatsSet::serialize
    bool verified = false;
    bool failed = false;
    std::string failureKind;
    std::string failureMessage;
    std::string failureDetail;  //!< multi-line context (HangReport)
    uint64_t failureCycle = 0;
    std::string trace;          //!< raw TraceEvent bytes, in drain order
};

RunOutput
runOnce(const std::string &app, const GpuConfig &base, unsigned threads,
        bool traced)
{
    GpuConfig config = base;
    config.simThreads = threads;
    SimContext ctx(byName(app), config);
    RunOutput out;
    if (traced)
        ctx.enableTrace(/*timeline_interval=*/256,
                        [&out](const TraceEvent *events, size_t n) {
                            out.trace.append(
                                reinterpret_cast<const char *>(events),
                                n * sizeof(TraceEvent));
                        },
                        /*id_base=*/0);
    ctx.run();
    out.stats = ctx.stats().serialize();
    out.verified = ctx.verified();
    out.failed = ctx.failed();
    out.failureKind = ctx.failure().kind;
    out.failureMessage = ctx.failure().message;
    out.failureDetail = ctx.failure().detail;
    out.failureCycle = ctx.failure().cycle;
    return out;
}

void
expectIdentical(const RunOutput &threaded, const RunOutput &serial,
                const std::string &label)
{
    EXPECT_EQ(threaded.stats, serial.stats) << label << ": stats diverged";
    EXPECT_EQ(threaded.verified, serial.verified) << label;
    EXPECT_EQ(threaded.failed, serial.failed) << label;
    EXPECT_EQ(threaded.failureKind, serial.failureKind) << label;
    EXPECT_EQ(threaded.failureMessage, serial.failureMessage) << label;
    EXPECT_EQ(threaded.failureDetail, serial.failureDetail) << label;
    EXPECT_EQ(threaded.failureCycle, serial.failureCycle) << label;
    EXPECT_EQ(threaded.trace.size(), serial.trace.size())
        << label << ": trace event count diverged";
    EXPECT_TRUE(threaded.trace == serial.trace)
        << label << ": trace bytes diverged";
}

TEST(ParallelTick, StatsAndTraceBitIdenticalAcrossThreadCounts)
{
    // The default machine, and a backed-up crossbar whose one-deep queues
    // keep partition credits binding: there the threaded request
    // arbitration, which runs after the partitions popped and adds those
    // pops back (Interconnect::commitCycle), decides who injects.
    GpuConfig backed_up{};
    backed_up.icntInjectQueueDepth = 1;
    backed_up.partQueueDepth = 1;
    backed_up.icntRespQueueDepth = 1;
    const std::pair<std::string, GpuConfig> configs[] = {
        {"default", GpuConfig{}}, {"backed-up crossbar", backed_up}};
    for (const auto &[name, config] : configs) {
        for (const auto &app : kSmallApps) {
            const std::string label = app + " (" + name + ")";
            const RunOutput serial =
                runOnce(app, config, 1, /*traced=*/true);
            EXPECT_TRUE(serial.verified) << label;
            EXPECT_FALSE(serial.failed) << label;
            EXPECT_FALSE(serial.stats.empty()) << label;
#ifndef GCL_TRACE_DISABLED
            // With emission compiled out the trace is legitimately empty;
            // the identity comparisons below still hold (empty == empty).
            EXPECT_FALSE(serial.trace.empty()) << label;
#endif
            for (unsigned threads : kThreadCounts) {
                const RunOutput threaded =
                    runOnce(app, config, threads, /*traced=*/true);
                expectIdentical(threaded, serial,
                                label + " @t=" + std::to_string(threads));
            }
        }
    }
}

TEST(ParallelTick, FaultPlanResultsIdenticalAcrossThreadCounts)
{
    // A mid-run stop fault: the threaded tick must fail at the same cycle
    // with the same structured record and identical partial stats.
    GpuConfig stop{};
    stop.faultPlan = "stop@2000";
    const RunOutput serial = runOnce("gaus", stop, 1, /*traced=*/false);
    EXPECT_TRUE(serial.failed);
    EXPECT_EQ(serial.failureKind, "fault_injected");
    for (unsigned threads : kThreadCounts)
        expectIdentical(runOnce("gaus", stop, threads, false), serial,
                        "stop@2000 t=" + std::to_string(threads));

    // Seeded survivable degradation (MSHR/ICNT/DRAM pressure windows):
    // the run completes, and its stats — including the fault.injected
    // counters — must not depend on the thread count.
    GpuConfig auto3{};
    auto3.faultPlan = "seed=42;auto=3";
    const RunOutput degraded = runOnce("gaus", auto3, 1, /*traced=*/true);
    EXPECT_FALSE(degraded.failed);
    for (unsigned threads : kThreadCounts)
        expectIdentical(runOnce("gaus", auto3, threads, true), degraded,
                        "auto=3 t=" + std::to_string(threads));
}

TEST(ParallelTick, HangReportIdenticalAcrossThreadCounts)
{
    // Injected livelock (every L1 fill dropped) caught by the watchdog:
    // the HangReport snapshots per-SM pipeline state mid-launch, so an
    // out-of-order threaded tick would show up as a differing report.
    GpuConfig config{};
    config.faultPlan = "dropfill@0+1000000000";
    config.watchdogInterval = 1024;
    config.watchdogBudget = 100000;
    const RunOutput serial = runOnce("gaus", config, 1, /*traced=*/false);
    EXPECT_TRUE(serial.failed);
    EXPECT_EQ(serial.failureKind, "hang");
    EXPECT_FALSE(serial.failureDetail.empty()) << "HangReport missing";
    for (unsigned threads : kThreadCounts)
        expectIdentical(runOnce("gaus", config, threads, false), serial,
                        "hang t=" + std::to_string(threads));
}

TEST(ParallelTick, ThreadCountClamping)
{
    // sim_threads is clamped to the unit count, and an icnt_latency of 0
    // forces the serial loop (the commit-phase request arbitration relies
    // on pushes becoming visible next cycle).
    GpuConfig config{};
    config.simThreads = 4;
    EXPECT_EQ(gcl::sim::Gpu(config).effectiveSimThreads(), 4u);

    config.icntLatency = 0;
    EXPECT_EQ(gcl::sim::Gpu(config).effectiveSimThreads(), 1u);

    config = GpuConfig{};
    config.simThreads = 1000;  // more threads than units
    EXPECT_EQ(gcl::sim::Gpu(config).effectiveSimThreads(),
              config.numSms + config.numPartitions);
}

} // namespace
