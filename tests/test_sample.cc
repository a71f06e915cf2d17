/**
 * @file
 * Sampled simulation (--sample) — spec parsing, functional fast-forward
 * fidelity, extrapolation accuracy, and warm-start prefix sharing.
 *
 * Everything here is deterministic: a warm-started run must be
 * byte-identical to the cold run that captured the prefix. The accuracy
 * assertions use loose
 * bounds (the tight 5% gates live in scripts/check.sh where full-length
 * anchors run); what they pin down is that extrapolation is wired to the
 * right counters, not a particular error decimal.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "sim/sample.hh"
#include "util/stats.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::SimError;
using gcl::StatsSet;
using gcl::sim::GpuConfig;
using gcl::sim::SamplePlan;
using gcl::workloads::byName;
using gcl::workloads::PrefixStore;
using gcl::workloads::SimContext;

GpuConfig
configWith(const std::string &overrides)
{
    GpuConfig config;
    if (!overrides.empty())
        config.applyOverrides(overrides);
    return config;
}

StatsSet
runApp(const std::string &app, const GpuConfig &config,
       PrefixStore *prefixes = nullptr, bool *ff_resumed = nullptr,
       bool *ff_captured = nullptr)
{
    SimContext ctx(byName(app), config);
    if (prefixes)
        ctx.setPrefixStore(*prefixes);
    ctx.run();
    EXPECT_FALSE(ctx.failed())
        << ctx.failure().kind << ": " << ctx.failure().message;
    EXPECT_TRUE(ctx.verified()) << app << " failed its reference check";
    if (ff_resumed)
        *ff_resumed = ctx.ffResumed();
    if (ff_captured)
        *ff_captured = ctx.ffPrefixCaptured();
    return ctx.stats();
}

double
missRate(const StatsSet &stats, const std::string &level)
{
    auto get = [&](const char *suffix) {
        const std::string key = level + "." + suffix;
        return stats.has(key) ? stats.get(key) : 0.0;
    };
    const double access = get("access.det") + get("access.nondet");
    const double miss = get("miss.det") + get("miss.nondet");
    return access > 0 ? miss / access : 0.0;
}

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

TEST(SamplePlan, ParsesEveryMode)
{
    EXPECT_EQ(SamplePlan::parse("").mode, SamplePlan::Mode::Off);

    const SamplePlan kernels = SamplePlan::parse("kernels:0:3:9");
    EXPECT_EQ(kernels.mode, SamplePlan::Mode::Kernels);
    EXPECT_EQ(kernels.kernels, (std::vector<uint64_t>{0, 3, 9}));
    EXPECT_TRUE(kernels.kernelDetailed(3));
    EXPECT_FALSE(kernels.kernelDetailed(4));

    const SamplePlan functional = SamplePlan::parse("ctas:0:0");
    EXPECT_EQ(functional.mode, SamplePlan::Mode::FastForward);
    EXPECT_FALSE(functional.kernelDetailed(0));
    EXPECT_TRUE(functional.detailedCtas(32).empty());

    const SamplePlan nth = SamplePlan::parse("every:4");
    EXPECT_EQ(nth.mode, SamplePlan::Mode::EveryNth);
    EXPECT_EQ(nth.detailedCtas(10), (std::vector<uint64_t>{0, 4, 8}));
}

TEST(SamplePlan, RejectsMalformedSpecs)
{
    for (const char *bad : {"bogus:1", "kernels", "kernels:x", "ctas:5",
                            "ctas:16:8", "ctas:5:0", "every:0", "every:two",
                            "every:18446744073709551617"}) // past 2^64
        EXPECT_THROW((void)SamplePlan::parse(bad), SimError) << bad;
}

// ---------------------------------------------------------------------
// Functional fast-forward fidelity
// ---------------------------------------------------------------------

TEST(SampleFastForward, WholeRunVerifiesFunctionally)
{
    // ctas:0:0 fast-forwards every CTA of every launch: no timing at
    // all, yet the device results must still pass each app's CPU
    // reference check. srad covers the barrier/shared-memory path, dwt
    // the single-launch image path.
    for (const char *app : {"dwt", "srad"}) {
        GpuConfig config = configWith("");
        config.sample = "ctas:0:0";
        const StatsSet stats = runApp(app, config);
        EXPECT_EQ(stats.get("sample.detailed_ctas"), 0.0) << app;
        EXPECT_GT(stats.get("sample.ff_work"), 0.0) << app;
    }
}

TEST(SampleFastForward, UnsampledRunExportsNoSampleKeys)
{
    // Sampling off must leave artifacts byte-identical to a build
    // without the feature; any sample.* key in a plain run's stats is a
    // leak (check.sh additionally diffs against committed goldens).
    const StatsSet stats = runApp("dwt", configWith(""));
    EXPECT_EQ(stats.serialize().find("sample."), std::string::npos);
}

// ---------------------------------------------------------------------
// Extrapolation accuracy (loose bounds; tight gates in check.sh)
// ---------------------------------------------------------------------

TEST(SampleEstimate, WindowedExtrapolationTracksFullRun)
{
    const StatsSet full = runApp("gaus", configWith(""));
    GpuConfig sampled_config = configWith("");
    sampled_config.sample = "every:4";
    const StatsSet sampled = runApp("gaus", sampled_config);

    ASSERT_TRUE(sampled.has("sample.est.cycles"));
    const double est = sampled.get("sample.est.cycles");
    const double ref = full.get("cycles");
    EXPECT_NEAR(est / ref, 1.0, 0.10)
        << "est " << est << " vs full " << ref;
    EXPECT_NEAR(missRate(sampled, "l1"), missRate(full, "l1"), 0.10);
    EXPECT_NEAR(missRate(sampled, "l2"), missRate(full, "l2"), 0.15);

    // The bookkeeping the estimator derives from must cover the run.
    EXPECT_EQ(sampled.get("sample.total_ctas"), full.get("ctas_launched"));
    EXPECT_EQ(sampled.get("sample.launches"), full.get("launches"));
    EXPECT_LT(sampled.get("sample.detailed_ctas"),
              sampled.get("sample.total_ctas"));
}

TEST(SampleEstimate, KernelWindowExtrapolationTracksFullRun)
{
    const StatsSet full = runApp("srad", configWith(""));
    GpuConfig sampled_config = configWith("");
    sampled_config.sample = "kernels:2:3";
    const StatsSet sampled = runApp("srad", sampled_config);

    EXPECT_NEAR(sampled.get("sample.est.cycles") / full.get("cycles"), 1.0,
                0.10);
    EXPECT_EQ(sampled.get("sample.detailed_launches"), 2.0);
}

// ---------------------------------------------------------------------
// Warm-start prefix sharing
// ---------------------------------------------------------------------

TEST(SampleWarmStart, PrefixRoundTripIsByteIdentical)
{
    GpuConfig config = configWith("");
    config.sample = "every:4";
    PrefixStore prefixes;

    bool resumed = false, captured = false;
    const StatsSet cold =
        runApp("gaus", config, &prefixes, &resumed, &captured);
    EXPECT_FALSE(resumed);
    EXPECT_TRUE(captured);
    EXPECT_EQ(prefixes.size(), 1u);

    const StatsSet warm =
        runApp("gaus", config, &prefixes, &resumed, &captured);
    EXPECT_TRUE(resumed);
    EXPECT_FALSE(captured);
    EXPECT_EQ(warm.serialize(), cold.serialize());
    EXPECT_EQ(warm.serialize(), runApp("gaus", config).serialize());
}

TEST(SampleWarmStart, PrefixSharedAcrossMachines)
{
    // The store is keyed by the timing-independent functional
    // fingerprint: a prefix captured under the default machine must
    // warm-start a different timing configuration and leave that
    // machine's results byte-identical to its own cold run.
    GpuConfig base = configWith("");
    base.sample = "every:4";
    GpuConfig other =
        configWith("dram_latency=400,l2_size=65536,cta_sched=clustered");
    other.sample = "every:4";
    ASSERT_EQ(base.functionalFingerprint(), other.functionalFingerprint());
    ASSERT_NE(base.fingerprint(), other.fingerprint());

    const StatsSet other_cold = runApp("gaus", other);

    PrefixStore prefixes;
    bool resumed = false, captured = false;
    runApp("gaus", base, &prefixes, &resumed, &captured);
    EXPECT_TRUE(captured);
    const StatsSet other_warm =
        runApp("gaus", other, &prefixes, &resumed, &captured);
    EXPECT_TRUE(resumed);
    EXPECT_EQ(other_warm.serialize(), other_cold.serialize());
}

TEST(SampleWarmStart, FingerprintSeparatesSpecsNotMachines)
{
    GpuConfig a = configWith("");
    a.sample = "every:4";
    GpuConfig b = configWith("dram_latency=2000,l2_size=1572864");
    b.sample = "every:4";
    EXPECT_EQ(a.functionalFingerprint(), b.functionalFingerprint());

    GpuConfig c = configWith("");
    c.sample = "kernels:1";
    EXPECT_NE(a.functionalFingerprint(), c.functionalFingerprint());

    // Each input of the fast-forward's wave size separates keys.
    for (const char *wave : {"num_sms=30", "max_threads_per_sm=512",
                             "max_ctas_per_sm=2", "shared_mem_per_sm=16384"}) {
        GpuConfig d = configWith(wave);
        d.sample = "every:4";
        EXPECT_NE(a.functionalFingerprint(), d.functionalFingerprint())
            << wave;
    }
}

TEST(SampleWarmStart, WaveSizeSeparatesPrefixes)
{
    // A prefix depends on the fast-forward's wave size: one captured at
    // the default machine must not warm-start a 4-SM run, which must
    // equal its own store-less run.
    for (const auto &[app, spec] :
         {std::pair<const char *, const char *>{"spmv", "every:4"},
          {"lu", "kernels:9"}}) {
        GpuConfig base = configWith("");
        base.sample = spec;
        GpuConfig small = configWith("num_sms=4");
        small.sample = spec;

        PrefixStore prefixes;
        bool resumed = false, captured = false;
        runApp(app, base, &prefixes, &resumed, &captured);
        EXPECT_TRUE(captured) << app;
        const StatsSet warm =
            runApp(app, small, &prefixes, &resumed, &captured);
        EXPECT_FALSE(resumed) << app;
        EXPECT_EQ(warm.serialize(), runApp(app, small).serialize()) << app;
    }
}

} // namespace
