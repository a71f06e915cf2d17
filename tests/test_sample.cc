/**
 * @file
 * Sampled simulation (--sample) — spec parsing, functional fast-forward
 * fidelity, extrapolation accuracy, and warm-start prefix sharing.
 *
 * Everything here is deterministic: a warm-started run must be
 * byte-identical to the fresh run that wrote the prefix. The accuracy assertions use loose
 * bounds (the tight 5% gates live in scripts/check.sh where full-length
 * anchors run); what they pin down is that extrapolation is wired to the
 * right counters, not a particular error decimal.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "sim/sample.hh"
#include "snap/snapshot.hh"
#include "util/stats.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::SimError;
using gcl::StatsSet;
using gcl::sim::GpuConfig;
using gcl::sim::SamplePlan;
using gcl::snap::SnapReader;
using gcl::snap::Snapshot;
using gcl::snap::SnapWriter;
using gcl::workloads::byName;
using gcl::workloads::SimContext;
using gcl::workloads::SnapOptions;

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
       const std::string &ff_prefix = "", bool *ff_resumed = nullptr,
       bool *ff_written = nullptr)
{
    SimContext ctx(byName(app), config);
    if (!ff_prefix.empty()) {
        SnapOptions snap;
        snap.ffPrefixPath = ff_prefix;
        ctx.setSnapOptions(snap);
    }
    ctx.run();
    EXPECT_FALSE(ctx.failed())
        << ctx.failure().kind << ": " << ctx.failure().message;
    EXPECT_TRUE(ctx.verified()) << app << " failed its reference check";
    if (ff_resumed)
        *ff_resumed = ctx.ffResumed();
    if (ff_written)
        *ff_written = ctx.ffPrefixWritten();
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

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
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

    const SamplePlan window = SamplePlan::parse("ctas:16:8");
    EXPECT_EQ(window.mode, SamplePlan::Mode::CtaWindow);
    EXPECT_EQ(window.ctaStart, 16u);
    EXPECT_EQ(window.ctaLen, 8u);
    EXPECT_EQ(window.detailedCtas(0, 32),
              (std::vector<uint64_t>{16, 17, 18, 19, 20, 21, 22, 23}));

    const SamplePlan nth = SamplePlan::parse("every:4");
    EXPECT_EQ(nth.mode, SamplePlan::Mode::EveryNth);
    EXPECT_EQ(nth.detailedCtas(0, 10), (std::vector<uint64_t>{0, 4, 8}));
}

TEST(SamplePlan, RejectsMalformedSpecs)
{
    for (const char *bad : {"bogus:1", "kernels", "kernels:x", "ctas:5",
                            "every:0", "every:two"})
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
    const std::string path = tempPath("ff_roundtrip.snap");
    std::remove(path.c_str());
    GpuConfig config = configWith("");
    config.sample = "every:4";

    bool resumed = false, written = false;
    const StatsSet fresh = runApp("gaus", config, path, &resumed, &written);
    EXPECT_FALSE(resumed);
    EXPECT_TRUE(written);

    const StatsSet warm = runApp("gaus", config, path, &resumed, &written);
    EXPECT_TRUE(resumed);
    EXPECT_EQ(warm.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

TEST(SampleWarmStart, PrefixSharedAcrossMachines)
{
    // The prefix is keyed by the machine-independent functional
    // fingerprint: a prefix captured under the default machine must
    // warm-start a different timing configuration and leave that
    // machine's results byte-identical to its own fresh run.
    const std::string path = tempPath("ff_cross_machine.snap");
    std::remove(path.c_str());
    GpuConfig base = configWith("");
    base.sample = "every:4";
    GpuConfig other = configWith("num_sms=4,dram_latency=400");
    other.sample = "every:4";
    ASSERT_EQ(base.functionalFingerprint(), other.functionalFingerprint());
    ASSERT_NE(base.fingerprint(), other.fingerprint());

    const StatsSet other_fresh = runApp("gaus", other);

    bool resumed = false, written = false;
    runApp("gaus", base, path, &resumed, &written);
    EXPECT_TRUE(written);
    const StatsSet other_warm =
        runApp("gaus", other, path, &resumed, &written);
    EXPECT_TRUE(resumed);
    EXPECT_EQ(other_warm.serialize(), other_fresh.serialize());
    std::remove(path.c_str());
}

TEST(SampleWarmStart, FingerprintSeparatesSpecsNotMachines)
{
    GpuConfig a = configWith("");
    a.sample = "every:4";
    GpuConfig b = configWith("dram_latency=2000,num_sms=30,l2_size=1572864");
    b.sample = "every:4";
    EXPECT_EQ(a.functionalFingerprint(), b.functionalFingerprint());

    GpuConfig c = configWith("");
    c.sample = "kernels:1";
    EXPECT_NE(a.functionalFingerprint(), c.functionalFingerprint());
}

TEST(SampleWarmStart, MetaMismatchFallsBackToFreshRun)
{
    // The prefix is best-effort: a file recorded against another dataset
    // version (the <app>.v<N>.ff.<fingerprint>.snap keying the bench
    // runner uses) must not poison the run — it is ignored, the run
    // executes fresh and re-captures, and the stats are unaffected.
    const std::string path = tempPath("ff_meta.snap");
    std::remove(path.c_str());
    GpuConfig config = configWith("");
    config.sample = "every:4";

    SnapOptions stale;
    stale.ffPrefixPath = path;
    stale.meta.emplace_back("dataset_version", "5");
    {
        SimContext ctx(byName("gaus"), config);
        ctx.setSnapOptions(stale);
        ctx.run();
        ASSERT_TRUE(ctx.ffPrefixWritten());
    }
    const StatsSet ref = runApp("gaus", config);

    SnapOptions bumped;
    bumped.ffPrefixPath = path;
    bumped.meta.emplace_back("dataset_version", "6");
    SimContext ctx(byName("gaus"), config);
    ctx.setSnapOptions(bumped);
    ctx.run();
    EXPECT_FALSE(ctx.failed());
    EXPECT_FALSE(ctx.ffResumed());
    EXPECT_TRUE(ctx.ffPrefixWritten());  // stale file re-captured
    EXPECT_EQ(ctx.stats().serialize(), ref.serialize());
    std::remove(path.c_str());
}

TEST(SampleWarmStart, MalformedPrefixEndsInSnapshotError)
{
    // A CRC-valid prefix that matches the run but whose sections do not
    // decode must end the run with a structured "snapshot" record, never
    // a process abort from an allocation sized by a corrupt count. The
    // failed run removes the prefix, so the next run of the same key runs
    // cold, recaptures it, and matches the first cold run.
    const std::string path = tempPath("ff_malformed.snap");
    std::remove(path.c_str());
    GpuConfig config = configWith("");
    config.sample = "every:4";
    bool resumed = false, written = false;
    const StatsSet cold = runApp("gaus", config, path, &resumed, &written);
    ASSERT_TRUE(written);
    const Snapshot good = Snapshot::readFile(path);

    constexpr uint64_t kHuge = uint64_t{1} << 61;
    struct Case
    {
        const char *what;
        const char *section;
        std::function<void(SnapWriter &)> write;
    };
    const std::vector<Case> cases = {
        {"host-log entry count", "hostlog",
         [](SnapWriter &out) { out.u64(kHuge); }},
        {"host-log payload size", "hostlog",
         [](SnapWriter &out) {
             out.u64(1);
             out.u8(1);       // memcpyToHost
             out.u64(0);
             out.u64(kHuge);
         }},
        {"sample-book count", "sample",
         [](SnapWriter &out) {
             out.u8(0);
             out.u64(kHuge);
         }},
        {"warm-ring count", "sample",
         [](SnapWriter &out) {
             out.u8(0);
             out.u64(0);      // empty book
             out.u64(kHuge);
         }},
        {"gmem page count", "gmem",
         [](SnapWriter &out) {
             out.u64(0);      // heap top
             out.u64(kHuge);
         }},
    };
    for (const Case &c : cases) {
        // Rewrite one section; copy the others and the header as they are.
        Snapshot bad;
        bad.configFingerprint = good.configFingerprint;
        bad.machineName = good.machineName;
        bad.app = good.app;
        bad.kernelIndex = good.kernelIndex;
        bad.cycle = good.cycle;
        bad.meta = good.meta;
        for (const std::string name : {"ffstate", "gmem", "hostlog",
                                       "sample"}) {
            SnapWriter &out = bad.section(name);
            if (name == c.section) {
                c.write(out);
                continue;
            }
            SnapReader in = good.reader(name);
            const size_t size = in.remaining();
            out.raw(in.rawRead(size), size);
        }
        bad.writeFile(path);

        SimContext ctx(byName("gaus"), config);
        SnapOptions snap;
        snap.ffPrefixPath = path;
        ctx.setSnapOptions(snap);
        ctx.run();
        ASSERT_TRUE(ctx.failed()) << c.what;
        EXPECT_EQ(ctx.failure().kind, "snapshot")
            << c.what << ": " << ctx.failure().message;

        const StatsSet again =
            runApp("gaus", config, path, &resumed, &written);
        EXPECT_FALSE(resumed) << c.what << ": the bad prefix was kept";
        EXPECT_TRUE(written) << c.what;
        EXPECT_EQ(again.serialize(), cold.serialize()) << c.what;
    }
    std::remove(path.c_str());
}

} // namespace
