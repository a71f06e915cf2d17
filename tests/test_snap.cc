/**
 * @file
 * gcl::snap — checkpoint/restore correctness.
 *
 * Three layers under test:
 *  - wire format: SnapWriter/SnapReader round trips, truncation, the
 *    Snapshot container's CRC/magic/schema rejection paths;
 *  - unit images: HandlePool allocator state round-trips to the exact
 *    handle sequence, SimtStack entries survive save/load;
 *  - whole runs: a run killed at kernel boundary k and resumed from its
 *    checkpoint finishes with byte-identical stats to the uninterrupted
 *    run — plain, under a surviving fault plan, and for the trace event
 *    stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "guard/cancel.hh"
#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "sim/simt_stack.hh"
#include "snap/io.hh"
#include "snap/snapshot.hh"
#include "trace/trace.hh"
#include "util/pool.hh"
#include "util/stats.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::HandlePool;
using gcl::PoolHandle;
using gcl::PoolImage;
using gcl::SimError;
using gcl::StatsSet;
using gcl::sim::GpuConfig;
using gcl::sim::SimtStack;
using gcl::snap::SnapIoError;
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

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

TEST(SnapIo, RoundTripsEveryPrimitive)
{
    SnapWriter out;
    out.u8(0xab);
    out.u16(0xbeef);
    out.u32(0xdeadbeef);
    out.u64(0x0123456789abcdefull);
    out.i64(-42);
    out.f64(3.14159265358979);
    out.str("hello");
    const uint8_t blob[3] = {1, 2, 3};
    out.bytes(blob, sizeof blob);

    SnapReader in(out.buffer().data(), out.size());
    EXPECT_EQ(in.u8(), 0xab);
    EXPECT_EQ(in.u16(), 0xbeef);
    EXPECT_EQ(in.u32(), 0xdeadbeefu);
    EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(in.i64(), -42);
    EXPECT_DOUBLE_EQ(in.f64(), 3.14159265358979);
    EXPECT_EQ(in.str(), "hello");
    uint8_t back[3] = {};
    in.bytesInto(back, sizeof back);
    EXPECT_EQ(back[2], 3);
    EXPECT_TRUE(in.atEnd());
}

TEST(SnapIo, TruncatedReadThrows)
{
    SnapWriter out;
    out.u32(7);
    SnapReader in(out.buffer().data(), out.size());
    EXPECT_THROW(in.u64(), SnapIoError);
}

TEST(SnapIo, BlobSizeMismatchThrows)
{
    SnapWriter out;
    const uint8_t blob[4] = {};
    out.bytes(blob, sizeof blob);
    SnapReader in(out.buffer().data(), out.size());
    uint8_t back[8];
    EXPECT_THROW(in.bytesInto(back, sizeof back), SnapIoError);
}

// ---------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------

Snapshot
sampleSnapshot()
{
    Snapshot snap;
    snap.configFingerprint = 0x1122334455667788ull;
    snap.machineName = "c2050";
    snap.app = "gaus";
    snap.kernelIndex = 3;
    snap.cycle = 12345;
    snap.meta.emplace_back("dataset_version", "5");
    snap.section("alpha").u64(99);
    snap.section("beta").str("payload");
    return snap;
}

TEST(SnapshotFile, RoundTrips)
{
    const std::string path = tempPath("roundtrip.snap");
    sampleSnapshot().writeFile(path);

    const Snapshot back = Snapshot::readFile(path);
    EXPECT_EQ(back.configFingerprint, 0x1122334455667788ull);
    EXPECT_EQ(back.machineName, "c2050");
    EXPECT_EQ(back.app, "gaus");
    EXPECT_EQ(back.kernelIndex, 3u);
    EXPECT_EQ(back.cycle, 12345u);
    ASSERT_EQ(back.meta.size(), 1u);
    EXPECT_EQ(back.meta[0].second, "5");
    ASSERT_TRUE(back.has("beta"));
    SnapReader alpha = back.reader("alpha");
    EXPECT_EQ(alpha.u64(), 99u);
    std::remove(path.c_str());
}

TEST(SnapshotFile, CrcCorruptionRejected)
{
    const std::string path = tempPath("corrupt.snap");
    sampleSnapshot().writeFile(path);

    // Flip one payload byte; the trailing CRC must catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.get(byte);
    byte ^= 0x01;
    f.seekp(40);
    f.put(byte);
    f.close();

    try {
        Snapshot::readFile(path);
        FAIL() << "corrupted snapshot was accepted";
    } catch (const SimError &error) {
        EXPECT_EQ(std::string(gcl::toString(error.kind())), "snapshot");
        EXPECT_NE(error.message().find("CRC"), std::string::npos)
            << error.message();
    }
    std::remove(path.c_str());
}

TEST(SnapshotFile, TruncationRejected)
{
    const std::string path = tempPath("truncated.snap");
    Snapshot snap = sampleSnapshot();
    const std::vector<uint8_t> bytes = snap.serialize();
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();

    EXPECT_THROW(Snapshot::readFile(path), SimError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, ForeignMagicRejected)
{
    const std::string path = tempPath("foreign.snap");
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a snapshot file, but long enough to parse";
    out.close();

    try {
        Snapshot::readFile(path);
        FAIL() << "foreign file was accepted";
    } catch (const SimError &error) {
        EXPECT_EQ(std::string(gcl::toString(error.kind())), "snapshot");
    }
    std::remove(path.c_str());
}

TEST(SnapshotFile, MissingSectionIsStructuredError)
{
    const Snapshot snap = sampleSnapshot();
    EXPECT_THROW(snap.reader("no-such-section"), SimError);
}

// ---------------------------------------------------------------------
// Unit images
// ---------------------------------------------------------------------

TEST(SnapPool, ImageRestoresHandleSequence)
{
    HandlePool<int> pool("orig");
    // Scramble the allocator: interleave allocs and frees so the free
    // list and generations diverge from a fresh pool's.
    std::vector<PoolHandle> held;
    for (int i = 0; i < 8; ++i)
        held.push_back(pool.alloc());
    pool.free(held[6]);
    pool.free(held[1]);
    pool.free(held[3]);
    std::vector<PoolHandle> refill;
    for (int i = 0; i < 3; ++i)
        refill.push_back(pool.alloc());
    for (PoolHandle h : {held[0], held[2], held[4], held[5], held[7],
                         refill[0], refill[1], refill[2]})
        pool.free(h);
    const PoolImage image = pool.saveImage();

    HandlePool<int> restored("copy");
    restored.loadImage(image);
    // Both pools must now hand out the exact same handle values in the
    // exact same order — the bit-identity contract a resumed run needs.
    for (int i = 0; i < 12; ++i) {
        const PoolHandle a = pool.alloc();
        const PoolHandle b = restored.alloc();
        EXPECT_EQ(a, b) << "allocation #" << i;
    }
}

TEST(SnapSimtStack, RoundTripsDivergence)
{
    SimtStack stack;
    stack.reset(0xffffffffu, 1000);
    stack.advance();
    stack.branch(0x0000ffffu, 500, 700); // diverge
    stack.advance();

    SnapWriter out;
    stack.save(out);

    SimtStack back;
    SnapReader in(out.buffer().data(), out.size());
    back.load(in);
    EXPECT_EQ(back.depth(), stack.depth());
    EXPECT_EQ(back.pc(), stack.pc());
    EXPECT_EQ(back.activeMask(), stack.activeMask());
}

// ---------------------------------------------------------------------
// Whole-run resume identity
// ---------------------------------------------------------------------

/** Run @p app to completion and return its finalized stats. */
StatsSet
referenceStats(const std::string &app, const GpuConfig &config)
{
    SimContext ctx(byName(app), config);
    ctx.run();
    EXPECT_FALSE(ctx.failed()) << ctx.failure().message;
    return ctx.stats();
}

/** Kill @p app at kernel boundary @p k, then resume; return final stats. */
StatsSet
killAndResume(const std::string &app, const GpuConfig &config, uint64_t k,
              const std::string &path)
{
    {
        SnapOptions stop;
        stop.checkpointPath = path;
        stop.stopAfterKernels = k;
        SimContext ctx(byName(app), config);
        ctx.setSnapOptions(stop);
        ctx.run();
        EXPECT_TRUE(ctx.failed());
        EXPECT_EQ(ctx.failure().kind, "canceled");
        EXPECT_GE(ctx.checkpointsWritten(), 1u);
    }
    SnapOptions resume;
    resume.checkpointPath = path;
    resume.resumeFrom = path;
    SimContext ctx(byName(app), config);
    ctx.setSnapOptions(resume);
    ctx.run();
    EXPECT_FALSE(ctx.failed())
        << ctx.failure().kind << ": " << ctx.failure().message;
    EXPECT_TRUE(ctx.resumed());
    std::remove(path.c_str());
    return ctx.stats();
}

TEST(SnapResume, ByteIdenticalSingleThread)
{
    const GpuConfig config = configWith("");
    const StatsSet ref = referenceStats("gaus", config);
    const StatsSet res = killAndResume("gaus", config, 2,
                                       tempPath("resume_t1.snap"));
    EXPECT_EQ(res.serialize(), ref.serialize());
}

TEST(SnapResume, ComposesWithFaultPlan)
{
    // A survivable fault plan (transient MSHR + interconnect refusal)
    // perturbs timing but completes; the resumed run must reproduce the
    // perturbed stats exactly.
    const GpuConfig config =
        configWith("fault_plan=mshr@500+5000;icnt@1000+2000");
    const StatsSet ref = referenceStats("gaus", config);
    const StatsSet res = killAndResume("gaus", config, 2,
                                       tempPath("resume_fault.snap"));
    EXPECT_EQ(res.serialize(), ref.serialize());
}

TEST(SnapResume, FingerprintMismatchNamesBothFingerprints)
{
    const GpuConfig config = configWith("");
    const std::string path = tempPath("mismatch.snap");
    {
        SnapOptions stop;
        stop.checkpointPath = path;
        stop.stopAfterKernels = 1;
        SimContext ctx(byName("gaus"), config);
        ctx.setSnapOptions(stop);
        ctx.run();
    }
    const GpuConfig other = configWith("num_sms=4");
    SnapOptions resume;
    resume.resumeFrom = path;
    SimContext ctx(byName("gaus"), other);
    ctx.setSnapOptions(resume);
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "snapshot");
    EXPECT_NE(ctx.failure().message.find(
                  gcl::snap::hexFingerprint(config.fingerprint())),
              std::string::npos)
        << ctx.failure().message;
    EXPECT_NE(ctx.failure().message.find(
                  gcl::snap::hexFingerprint(other.fingerprint())),
              std::string::npos)
        << ctx.failure().message;
    std::remove(path.c_str());
}

TEST(SnapResume, DatasetVersionMismatchRejected)
{
    // Provenance meta pairs (the bench runner records dataset_version)
    // must match between capture and resume: the config fingerprint
    // cannot see datasets, so a checkpoint of version-5 inputs resumed
    // against version-6 inputs would be silently wrong instead of
    // loudly rejected.
    const GpuConfig config = configWith("");
    const std::string path = tempPath("dataset_mismatch.snap");
    {
        SnapOptions stop;
        stop.checkpointPath = path;
        stop.stopAfterKernels = 1;
        stop.meta.emplace_back("dataset_version", "5");
        SimContext ctx(byName("gaus"), config);
        ctx.setSnapOptions(stop);
        ctx.run();
    }
    SnapOptions resume;
    resume.resumeFrom = path;
    resume.meta.emplace_back("dataset_version", "6");
    SimContext ctx(byName("gaus"), config);
    ctx.setSnapOptions(resume);
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "snapshot");
    EXPECT_NE(ctx.failure().message.find("dataset_version=5"),
              std::string::npos)
        << ctx.failure().message;
    EXPECT_NE(ctx.failure().message.find("dataset_version=6"),
              std::string::npos)
        << ctx.failure().message;
    std::remove(path.c_str());
}

TEST(SnapResume, WrongAppRejected)
{
    const GpuConfig config = configWith("");
    const std::string path = tempPath("wrongapp.snap");
    {
        SnapOptions stop;
        stop.checkpointPath = path;
        stop.stopAfterKernels = 1;
        SimContext ctx(byName("gaus"), config);
        ctx.setSnapOptions(stop);
        ctx.run();
    }
    SnapOptions resume;
    resume.resumeFrom = path;
    SimContext ctx(byName("bpr"), config);
    ctx.setSnapOptions(resume);
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "snapshot");
    EXPECT_NE(ctx.failure().message.find("gaus"), std::string::npos);
    EXPECT_NE(ctx.failure().message.find("bpr"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SnapResume, TraceStreamByteIdentical)
{
    using gcl::trace::TraceEvent;
    const GpuConfig config = configWith("");
    auto collect = [](std::vector<TraceEvent> &into) {
        return [&into](const TraceEvent *events, size_t count) {
            into.insert(into.end(), events, events + count);
        };
    };

    std::vector<TraceEvent> ref;
    {
        SimContext ctx(byName("gaus"), config);
        ctx.enableTrace(0, collect(ref), 0);
        ctx.run();
        ASSERT_FALSE(ctx.failed());
    }

    const std::string path = tempPath("resume_trace.snap");
    std::vector<TraceEvent> killed;
    {
        SnapOptions stop;
        stop.checkpointPath = path;
        stop.stopAfterKernels = 2;
        SimContext ctx(byName("gaus"), config);
        ctx.enableTrace(0, collect(killed), 0);
        ctx.setSnapOptions(stop);
        ctx.run();
        ASSERT_TRUE(ctx.failed());
    }
    std::vector<TraceEvent> resumed;
    {
        SnapOptions resume;
        resume.resumeFrom = path;
        SimContext ctx(byName("gaus"), config);
        ctx.enableTrace(0, collect(resumed), 0);
        ctx.setSnapOptions(resume);
        ctx.run();
        ASSERT_FALSE(ctx.failed())
            << ctx.failure().kind << ": " << ctx.failure().message;
        ASSERT_TRUE(ctx.resumed());
    }

    ASSERT_EQ(resumed.size(), ref.size());
    EXPECT_EQ(std::memcmp(resumed.data(), ref.data(),
                          ref.size() * sizeof(TraceEvent)),
              0)
        << "resumed trace event stream differs from the uninterrupted one";
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cancellation and hang snapshots
// ---------------------------------------------------------------------

TEST(SnapCancel, CancelFlagProducesStructuredRecord)
{
    gcl::guard::requestCancel();
    SimContext ctx(byName("gaus"), configWith(""));
    ctx.run();
    gcl::guard::resetCancel();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "canceled");
    EXPECT_EQ(ctx.failure().component, "gpu");
}

TEST(SnapCancel, CancelledRunFlushesItsFreshestBoundary)
{
    const std::string path = tempPath("cancel_flush.snap");
    SnapOptions snap;
    snap.checkpointPath = path;
    snap.checkpointEvery = 1000; // never periodic — only the flush writes
    SimContext ctx(byName("gaus"), configWith(""));
    ctx.setSnapOptions(snap);
    gcl::guard::requestCancel();
    ctx.run();
    gcl::guard::resetCancel();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "canceled");
    if (ctx.lastSnapshot() != nullptr) {
        EXPECT_EQ(ctx.checkpointsWritten(), 1u);
        EXPECT_NE(ctx.failure().detail.find("checkpoint"),
                  std::string::npos);
        const Snapshot back = Snapshot::readFile(path);
        EXPECT_EQ(back.app, "gaus");
    }
    std::remove(path.c_str());
}

TEST(SnapHang, HangSnapshotWrittenNextToFailure)
{
    const std::string path = tempPath("hang.snap");
    SnapOptions snap;
    snap.checkpointPath = path;
    snap.hangSnapshot = true;
    SimContext ctx(byName("gaus"),
                   configWith("watchdog_interval=1024,watchdog_budget=50000,"
                              "fault_plan=dropfill@0+1000000000"));
    ctx.setSnapOptions(snap);
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "hang");
    // The primary post-mortem must still be intact...
    EXPECT_NE(ctx.failure().detail.find("HangReport"), std::string::npos);
    // ...and the boundary snapshot lands next to it.
    EXPECT_NE(ctx.failure().detail.find("hang snapshot"),
              std::string::npos)
        << ctx.failure().detail;
    const Snapshot back = Snapshot::readFile(path + ".hang");
    EXPECT_EQ(back.app, "gaus");
    std::remove((path + ".hang").c_str());
}

TEST(SnapHang, FailedSnapshotWriteDoesNotDisplaceHangReport)
{
    // Unwritable snapshot directory: composing the hang report and the
    // failing snapshot write are two faults — both records must surface.
    SnapOptions snap;
    snap.checkpointPath = "/nonexistent-dir-gcl/hang.snap";
    snap.hangSnapshot = true;
    SimContext ctx(byName("gaus"),
                   configWith("watchdog_interval=1024,watchdog_budget=50000,"
                              "fault_plan=dropfill@0+1000000000"));
    ctx.setSnapOptions(snap);
    ctx.run();
    ASSERT_TRUE(ctx.failed());
    EXPECT_EQ(ctx.failure().kind, "hang");
    EXPECT_NE(ctx.failure().detail.find("HangReport"), std::string::npos)
        << "primary hang post-mortem was displaced";
    EXPECT_NE(ctx.failure().detail.find("failed"), std::string::npos)
        << ctx.failure().detail;
}

} // namespace
