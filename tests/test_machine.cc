/**
 * @file
 * Machine-description frontend tests: the gpgpusim.config-style grammar
 * (src/sim/machine.hh), the canonical serializer round-trip, registry
 * resolution over the committed configs/ zoo, override layering, and the
 * central byte-identity contract — `--machine=c2050` must be
 * indistinguishable from the compiled-in defaults, stats and trace alike.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "sim/machine.hh"
#include "trace/chrome_writer.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using namespace gcl::sim;
using gcl::SimError;

std::string
zooPath(const std::string &name)
{
    return std::string(GCL_REPO_CONFIGS_DIR) + "/" + name + ".config";
}

TEST(Machine, GrammarParsesKeysCommentsAndBlanks)
{
    const GpuConfig config = parseMachineText("# a comment\n"
                                              "\n"
                                              "-num_sms 4   # trailing\n"
                                              "-warp_sched gto\n"
                                              "-dram_latency 42\n",
                                              "<test>", "fallback");
    EXPECT_EQ(config.numSms, 4u);
    EXPECT_EQ(config.warpSched, WarpSchedPolicy::GreedyThenOldest);
    EXPECT_EQ(config.dramLatency, 42u);
    // No -machine_name line: the name falls back to the file stem.
    EXPECT_EQ(config.machineName, "fallback");
}

TEST(Machine, CacheGeometryString)
{
    // Three-field form: geometry only, MSHR shape inherited.
    const GpuConfig defaults;
    GpuConfig three =
        parseMachineText("-l1_cache 64:128:8\n", "<test>", "t");
    EXPECT_EQ(three.l1.sizeBytes, 64u * 128 * 8);
    EXPECT_EQ(three.l1.lineBytes, 128u);
    EXPECT_EQ(three.l1.assoc, 8u);
    EXPECT_EQ(three.l1.numSets(), 64u);
    EXPECT_EQ(three.l1.mshrEntries, defaults.l1.mshrEntries);
    EXPECT_EQ(three.l1.mshrMaxMerge, defaults.l1.mshrMaxMerge);

    // Five-field form sets the MSHR too.
    GpuConfig five =
        parseMachineText("-l2_cache 256:32:16:48:4\n", "<test>", "t");
    EXPECT_EQ(five.l2.sizeBytes, 256u * 32 * 16);
    EXPECT_EQ(five.l2.mshrEntries, 48u);
    EXPECT_EQ(five.l2.mshrMaxMerge, 4u);
}

TEST(Machine, OpTimingKeys)
{
    const GpuConfig config =
        parseMachineText("-op_fp_div 32:4\n-op_sfu 20:8\n", "<test>", "t");
    const FuTiming &fp_div =
        config.opTiming[static_cast<size_t>(OpClass::FpDiv)];
    EXPECT_EQ(fp_div.latency, 32u);
    EXPECT_EQ(fp_div.initiation, 4u);
    const FuTiming &sfu =
        config.opTiming[static_cast<size_t>(OpClass::Sfu)];
    EXPECT_EQ(sfu.latency, 20u);
    EXPECT_EQ(sfu.initiation, 8u);
    // Untouched classes keep their defaults.
    EXPECT_EQ(config.opTiming[static_cast<size_t>(OpClass::IntAlu)],
              GpuConfig{}.opTiming[static_cast<size_t>(OpClass::IntAlu)]);
}

TEST(Machine, UnknownKeyIsFatalAndListsVocabulary)
{
    try {
        parseMachineText("-num_sms 4\n-no_such_knob 1\n", "file.config",
                         "t");
        FAIL() << "unknown key accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        // Position of the offending line...
        EXPECT_NE(e.message().find("file.config:2"), std::string::npos);
        // ...and the valid vocabulary, so the typo is a one-round fix.
        EXPECT_NE(e.message().find("num_partitions"), std::string::npos);
        EXPECT_NE(e.message().find("op_sfu"), std::string::npos);
    }
}

TEST(Machine, MalformedLinesAreFatal)
{
    EXPECT_THROW(parseMachineText("num_sms 4\n", "<t>", "t"), SimError);
    EXPECT_THROW(parseMachineText("-num_sms\n", "<t>", "t"), SimError);
    EXPECT_THROW(parseMachineText("-l1_cache 64:128\n", "<t>", "t"),
                 SimError);
    EXPECT_THROW(parseMachineText("-op_sfu 16\n", "<t>", "t"), SimError);
    EXPECT_THROW(parseMachineText("-op_sfu 0:1\n", "<t>", "t"), SimError);
    // Past 65535, the range of the per-PC timing tables.
    EXPECT_THROW(parseMachineText("-op_int_alu 65537:1\n", "<t>", "t"),
                 SimError);
    // 65536 sets of 65536 bytes: 4 GB, past the 32-bit cache size.
    EXPECT_THROW(parseMachineText("-l1_cache 65536:65536:1\n", "<t>", "t"),
                 SimError);
}

TEST(Machine, SerializeRoundTrips)
{
    GpuConfig original;
    original.numSms = 7;
    original.warpSched = WarpSchedPolicy::GreedyThenOldest;
    original.opTiming[static_cast<size_t>(OpClass::FpDiv)] = {32, 4};
    original.dramBanks = 16;
    original.dramRowBytes = 1024;
    original.machineName = "round-trip";

    const std::string text = serializeMachine(original);
    const GpuConfig parsed = parseMachineText(text, "<serialized>", "x");
    EXPECT_EQ(parsed.machineName, "round-trip");
    EXPECT_EQ(parsed.fingerprint(), original.fingerprint());
    EXPECT_EQ(serializeMachine(parsed), text);
}

TEST(Machine, ZooParsesAndC2050MatchesDefaults)
{
    // Every committed machine must load; c2050 must be the compiled-in
    // defaults exactly (same fingerprint -> same cache entries, same
    // simulated behavior).
    const GpuConfig c2050 = loadMachineFile(zooPath("c2050"));
    EXPECT_EQ(c2050.machineName, "c2050");
    EXPECT_EQ(c2050.fingerprint(), GpuConfig{}.fingerprint());
    EXPECT_EQ(serializeMachine(c2050), serializeMachine(GpuConfig{}));

    const GpuConfig hbm = loadMachineFile(zooPath("hbm-sectored"));
    EXPECT_EQ(hbm.machineName, "hbm-sectored");
    EXPECT_EQ(hbm.l1.lineBytes, 32u);
    EXPECT_EQ(hbm.numPartitions, 24u);
    EXPECT_GT(hbm.dramRowBytes, 0u);

    const GpuConfig modern = loadMachineFile(zooPath("modern-core"));
    EXPECT_EQ(modern.machineName, "modern-core");
    EXPECT_EQ(modern.numSchedulers, 4u);
    EXPECT_EQ(modern.warpSched, WarpSchedPolicy::GreedyThenOldest);
    EXPECT_NE(modern.fingerprint(), c2050.fingerprint());

    const GpuConfig tiny = loadMachineFile(zooPath("tiny"));
    EXPECT_EQ(tiny.numSms, 2u);
    EXPECT_EQ(tiny.numPartitions, 1u);
}

TEST(Machine, RegistryResolvesNamesAndPaths)
{
    setenv("GCL_MACHINE_DIR", GCL_REPO_CONFIGS_DIR, 1);
    EXPECT_EQ(MachineRegistry::resolve("tiny").numSms, 2u);
    EXPECT_EQ(MachineRegistry::resolve(zooPath("tiny")).numSms, 2u);
    // Empty spec = compiled defaults.
    EXPECT_EQ(MachineRegistry::resolve("").fingerprint(),
              GpuConfig{}.fingerprint());
    try {
        MachineRegistry::resolve("no-such-machine");
        FAIL() << "unknown machine accepted";
    } catch (const SimError &e) {
        EXPECT_NE(e.message().find("tiny"), std::string::npos)
            << "error should list the known machines";
    }
    EXPECT_THROW(MachineRegistry::resolve("no/such/file.config"),
                 SimError);
    unsetenv("GCL_MACHINE_DIR");
}

TEST(Machine, SimConfigOverridesLayerOnTop)
{
    GpuConfig config = loadMachineFile(zooPath("tiny"));
    EXPECT_EQ(config.numSms, 2u);
    config.applyOverrides("num_sms=4,dram_latency=7");
    EXPECT_EQ(config.numSms, 4u);
    EXPECT_EQ(config.dramLatency, 7u);
    // The layered config is a distinct cache key from the plain machine.
    EXPECT_NE(config.fingerprint(),
              loadMachineFile(zooPath("tiny")).fingerprint());
}

/** Run @p app under @p config with tracing on; return {stats, trace}. */
std::pair<std::string, std::string>
tracedRun(const char *app, GpuConfig config)
{
    std::ostringstream trace;
    gcl::trace::ChromeTraceWriter writer(trace);
    gcl::workloads::SimContext ctx(gcl::workloads::byName(app), config);
    ctx.enableTrace(1000, writer.drain(), /*id_base=*/uint64_t{1} << 40);
    ctx.run();
    EXPECT_FALSE(ctx.failed()) << ctx.failure().message;
    EXPECT_TRUE(ctx.verified());
    writer.close();
    return {ctx.stats().serialize(), trace.str()};
}

TEST(Machine, C2050IsByteIdenticalToDefaults)
{
    // The acceptance contract, in miniature: same stats bytes and same
    // trace bytes for defaults vs the loaded c2050 file.
    const auto base = tracedRun("gaus", GpuConfig{});
    const auto machine = tracedRun("gaus", loadMachineFile(zooPath("c2050")));
    EXPECT_EQ(base.first, machine.first) << "stats diverge";
    EXPECT_EQ(base.second, machine.second) << "trace diverges";
}

TEST(Machine, TinyMachineRunsARealWorkload)
{
    // The scaled-down machine must still complete a real app with the
    // conservation invariants intact (SimContext would record a failure).
    GpuConfig config = loadMachineFile(zooPath("tiny"));
    gcl::workloads::SimContext ctx(gcl::workloads::byName("bpr"), config);
    ctx.run();
    EXPECT_FALSE(ctx.failed()) << ctx.failure().message;
    EXPECT_TRUE(ctx.verified());
    EXPECT_GT(ctx.stats().get("cycles"), 0.0);
}

} // namespace
