/**
 * @file
 * gcl::snap — the snapshot container the functional prefix is stored in.
 *
 * SnapWriter/SnapReader round trips, truncation and element counts past
 * the bytes left, and the Snapshot container's CRC/magic/schema
 * rejection paths. The prefix itself (warm-start identity, fallbacks and
 * malformed sections) is tested in test_sample.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "guard/sim_error.hh"
#include "snap/io.hh"
#include "snap/snapshot.hh"

namespace
{

using gcl::SimError;
using gcl::snap::SnapIoError;
using gcl::snap::SnapReader;
using gcl::snap::Snapshot;
using gcl::snap::SnapWriter;

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

TEST(SnapIo, CountPastTheBytesLeftThrows)
{
    // Three 4-byte entries follow the count: 3 fits, 4 does not, and a
    // count whose allocation would overflow fails before any allocation.
    auto read = [](uint64_t count) {
        SnapWriter out;
        out.u64(count);
        for (int i = 0; i < 3; ++i)
            out.u32(7);
        SnapReader in(out.buffer().data(), out.size());
        return in.count(sizeof(uint32_t));
    };
    EXPECT_EQ(read(3), 3u);
    EXPECT_THROW(read(4), SnapIoError);
    EXPECT_THROW(read(uint64_t{1} << 61), SnapIoError);
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

} // namespace
