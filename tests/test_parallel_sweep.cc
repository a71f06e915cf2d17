/**
 * @file
 * Determinism of the parallel sweep: simulating applications concurrently
 * (one thread-confined SimContext per job, scheduled by gcl::exec) must
 * produce *bit-identical* stats to running them one after another on the
 * main thread. This is the property that lets `--jobs=N` be a pure
 * wall-clock optimization — every figure, cache entry and export is
 * byte-for-byte the same as a serial sweep's.
 *
 * Uses the three smallest Table I applications (~100 ms each) so the
 * double sweep stays cheap; scripts/check.sh additionally diffs whole
 * cache directories produced by --jobs=1 vs --jobs=3 bench runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/scheduler.hh"
#include "sim/config.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::exec::parallelFor;
using gcl::sim::GpuConfig;
using gcl::workloads::PrefixStore;
using gcl::workloads::SimContext;
using gcl::workloads::byName;

const std::vector<std::string> kSmallApps = {"gaus", "bpr", "dwt"};

struct SweepOutput
{
    std::vector<std::string> stats;  //!< StatsSet::serialize per app
    // Deliberately not vector<bool>: its bit-packing makes writes to
    // neighboring elements a data race between sweep jobs.
    std::vector<char> verified;
};

SweepOutput
sweep(unsigned jobs, const GpuConfig &config)
{
    SweepOutput out;
    out.stats.resize(kSmallApps.size());
    out.verified.resize(kSmallApps.size());
    parallelFor(jobs, kSmallApps.size(), [&](size_t i) {
        SimContext ctx(byName(kSmallApps[i]), config);
        ctx.run();
        out.stats[i] = ctx.stats().serialize();
        out.verified[i] = ctx.verified() ? 1 : 0;
    });
    return out;
}

TEST(ParallelSweep, StatsBitIdenticalToSerial)
{
    const GpuConfig config{};
    const SweepOutput serial = sweep(1, config);
    for (size_t i = 0; i < kSmallApps.size(); ++i) {
        EXPECT_TRUE(serial.verified[i]) << kSmallApps[i];
        EXPECT_FALSE(serial.stats[i].empty()) << kSmallApps[i];
    }

    const SweepOutput parallel = sweep(3, config);
    for (size_t i = 0; i < kSmallApps.size(); ++i) {
        EXPECT_EQ(parallel.verified[i], serial.verified[i])
            << kSmallApps[i];
        EXPECT_EQ(parallel.stats[i], serial.stats[i])
            << kSmallApps[i] << ": parallel stats differ from serial";
    }
}

TEST(ParallelSweep, RepeatedParallelRunsAreIdentical)
{
    // Two concurrent sweeps back to back: any hidden cross-run state
    // (a shared RNG, accumulating stats, a leaked sink) would show up as
    // run-to-run drift even when each run matches some serial baseline.
    const GpuConfig config{};
    const SweepOutput first = sweep(3, config);
    const SweepOutput second = sweep(3, config);
    for (size_t i = 0; i < kSmallApps.size(); ++i)
        EXPECT_EQ(first.stats[i], second.stats[i]) << kSmallApps[i];
}

TEST(ParallelSweep, SameAppConcurrentlyIsIsolated)
{
    // Harsher isolation probe: N copies of the *same* application in
    // flight at once. Any shared mutable state between Gpu instances
    // (memory image, caches, stats) would make the copies diverge.
    const GpuConfig config{};
    std::vector<std::string> stats(4);
    parallelFor(4, stats.size(), [&](size_t i) {
        SimContext ctx(byName("gaus"), config);
        ctx.run();
        stats[i] = ctx.stats().serialize();
    });
    for (size_t i = 1; i < stats.size(); ++i)
        EXPECT_EQ(stats[i], stats[0]) << "copy " << i;
}

TEST(ParallelSweep, SampledRunsShareOnePrefixStore)
{
    // The prefix store is the one object concurrent runs share: two
    // configs of one functional fingerprint, two copies each, in flight
    // at once. Whichever run captures first, every result must equal its
    // config's cold, store-less run.
    GpuConfig base{};
    base.sample = "every:4";
    GpuConfig other{};
    other.applyOverrides("dram_latency=400,l2_size=65536,cta_sched=clustered");
    other.sample = "every:4";
    ASSERT_EQ(base.functionalFingerprint(), other.functionalFingerprint());
    ASSERT_NE(base.fingerprint(), other.fingerprint());
    const std::vector<GpuConfig> configs = {base, other, base, other};

    std::vector<std::string> cold(2);
    for (size_t i = 0; i < cold.size(); ++i) {
        SimContext ctx(byName("gaus"), configs[i]);
        ctx.run();
        ASSERT_TRUE(ctx.verified());
        cold[i] = ctx.stats().serialize();
    }

    PrefixStore prefixes;
    std::vector<std::string> shared(configs.size());
    std::vector<char> resumed(configs.size());
    parallelFor(4, configs.size(), [&](size_t i) {
        SimContext ctx(byName("gaus"), configs[i]);
        ctx.setPrefixStore(prefixes);
        ctx.run();
        shared[i] = ctx.stats().serialize();
        resumed[i] = ctx.ffResumed() ? 1 : 0;
    });
    EXPECT_EQ(prefixes.size(), 1u);
    for (size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(shared[i], cold[i % 2])
            << "run " << i << (resumed[i] ? " (warm)" : " (cold)");

    // Every run after the capture starts warm.
    SimContext late(byName("gaus"), other);
    late.setPrefixStore(prefixes);
    late.run();
    EXPECT_TRUE(late.ffResumed());
    EXPECT_EQ(late.stats().serialize(), cold[1]);
}

} // namespace
