/**
 * @file
 * Unit tests for the utility layer: RNG, histogram, stats container,
 * table writer, bit utilities and the count parser.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/bitutil.hh"
#include "util/count.hh"
#include "util/histogram.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace
{

using gcl::Histogram;
using gcl::Rng;
using gcl::StatsSet;
using gcl::Table;

TEST(BitUtil, PowerOfTwoPredicates)
{
    EXPECT_TRUE(gcl::isPowerOf2(1));
    EXPECT_TRUE(gcl::isPowerOf2(128));
    EXPECT_TRUE(gcl::isPowerOf2(uint64_t{1} << 63));
    EXPECT_FALSE(gcl::isPowerOf2(0));
    EXPECT_FALSE(gcl::isPowerOf2(3));
    EXPECT_FALSE(gcl::isPowerOf2(130));
}

TEST(BitUtil, Logarithms)
{
    EXPECT_EQ(gcl::floorLog2(1), 0u);
    EXPECT_EQ(gcl::floorLog2(2), 1u);
    EXPECT_EQ(gcl::floorLog2(3), 1u);
    EXPECT_EQ(gcl::floorLog2(128), 7u);
    EXPECT_EQ(gcl::ceilLog2(1), 0u);
    EXPECT_EQ(gcl::ceilLog2(2), 1u);
    EXPECT_EQ(gcl::ceilLog2(3), 2u);
    EXPECT_EQ(gcl::ceilLog2(128), 7u);
    EXPECT_EQ(gcl::ceilLog2(129), 8u);
}

TEST(BitUtil, Rounding)
{
    EXPECT_EQ(gcl::roundUp(0, 128), 0u);
    EXPECT_EQ(gcl::roundUp(1, 128), 128u);
    EXPECT_EQ(gcl::roundUp(128, 128), 128u);
    EXPECT_EQ(gcl::roundDown(255, 128), 128u);
    EXPECT_EQ(gcl::divCeil(10, 3), 4u);
    EXPECT_EQ(gcl::divCeil(9, 3), 3u);
}

TEST(BitUtil, WordBitsetsWalkInOrderAcrossWords)
{
    // 68 bits, as for 60 SMs and 8 partitions: the walk must cross into
    // the second word and stop at the range ends.
    std::vector<uint64_t> bits(2, 0);
    for (const size_t i : {0, 5, 59, 60, 63, 64, 67})
        gcl::setBit(bits, i);
    gcl::clearBit(bits, 5);
    EXPECT_TRUE(gcl::testBit(bits, 64));
    EXPECT_FALSE(gcl::testBit(bits, 5));

    auto walk = [&bits](size_t first, size_t last, bool set) {
        std::vector<size_t> seen;
        auto record = [&seen](size_t i) { seen.push_back(i); };
        if (set)
            gcl::forEachSetBit(bits, first, last, record);
        else
            gcl::forEachClearBit(bits, first, last, record);
        return seen;
    };
    EXPECT_EQ(walk(0, 68, true),
              (std::vector<size_t>{0, 59, 60, 63, 64, 67}));
    EXPECT_EQ(walk(0, 60, true), (std::vector<size_t>{0, 59}));
    EXPECT_EQ(walk(60, 68, true), (std::vector<size_t>{60, 63, 64, 67}));
    EXPECT_EQ(walk(61, 67, true), (std::vector<size_t>{63, 64}));
    EXPECT_EQ(walk(58, 68, false), (std::vector<size_t>{58, 61, 62, 65, 66}));
    EXPECT_TRUE(walk(64, 64, true).empty());

    // A walk may clear the bit it visits (a unit falling asleep).
    std::vector<size_t> cleared;
    gcl::forEachSetBit(bits, 0, 68, [&](size_t i) {
        gcl::clearBit(bits, i);
        cleared.push_back(i);
    });
    EXPECT_EQ(cleared, (std::vector<size_t>{0, 59, 60, 63, 64, 67}));
    EXPECT_EQ(bits, (std::vector<uint64_t>{0, 0}));
}

TEST(CountDeathTest, ParseCountTakesDecimalDigitsOnly)
{
    EXPECT_EQ(gcl::parseCount("--n", "007", "count", false), 7u);
    EXPECT_EQ(gcl::parseCount("--n", "0", "count", true), 0u);
    EXPECT_EQ(gcl::parseCount("--n", "18446744073709551615", "count", false),
              UINT64_MAX);
    EXPECT_EQ(gcl::parseCount("--n", "4294967295", "count", false,
                              UINT32_MAX),
              UINT32_MAX);
    // A sign, trailing or leading text, the empty value, overflow of the
    // type and of a caller's bound (one below a single digit too), and 0
    // where it is not allowed.
    const std::pair<const char *, uint64_t> bad[] = {
        {"-2", UINT64_MAX},
        {"2x", UINT64_MAX},
        {" 2", UINT64_MAX},
        {"", UINT64_MAX},
        {"18446744073709551616", UINT64_MAX},
        {"4294967296", UINT32_MAX},
        {"7", 5},
    };
    for (const auto &[text, max] : bad)
        EXPECT_EXIT(gcl::parseCount("--n", text, "count", true, max),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: --n=") + text + " is not a count")
            << '"' << text << '"';
    EXPECT_EXIT(gcl::parseCount("--n", "0", "count", false),
                ::testing::ExitedWithCode(1), "fatal: --n=0 is not a count");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng.nextBounded(37);
        ASSERT_LT(v, 37u);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(8);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 1000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int count : seen)
        EXPECT_GT(count, 50);  // roughly uniform
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(10);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(HistogramTest, MeanAndTotals)
{
    Histogram h;
    h.add(1, 2.0);
    h.add(3, 2.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_DOUBLE_EQ(h.weightAt(1), 2.0);
    EXPECT_DOUBLE_EQ(h.weightAt(2), 0.0);
}

TEST(HistogramTest, NormalizedSumsToOne)
{
    Histogram h;
    h.add(5, 1.0);
    h.add(-2, 3.0);
    h.add(100, 6.0);
    double total = 0.0;
    for (const auto &[key, frac] : h.normalized())
        total += frac;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HistogramTest, MergeAccumulates)
{
    Histogram a, b;
    a.add(1, 1.0);
    b.add(1, 2.0);
    b.add(2, 5.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.weightAt(1), 3.0);
    EXPECT_DOUBLE_EQ(a.weightAt(2), 5.0);
    EXPECT_DOUBLE_EQ(a.totalWeight(), 8.0);
}

TEST(HistogramTest, KeysIterateInOrder)
{
    Histogram h;
    h.add(10);
    h.add(-5);
    h.add(3);
    std::vector<int64_t> keys;
    for (const auto &[key, w] : h.buckets())
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<int64_t>{-5, 3, 10}));
}

TEST(StatsSetTest, IncAndGet)
{
    StatsSet s;
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    s.inc("x");
    s.inc("x", 2.5);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.5);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatsSetTest, RatioHandlesZeroDenominator)
{
    StatsSet s;
    s.set("num", 10.0);
    EXPECT_DOUBLE_EQ(s.ratio("num", "den"), 0.0);
    s.set("den", 4.0);
    EXPECT_DOUBLE_EQ(s.ratio("num", "den"), 2.5);
}

TEST(StatsSetTest, MergeAddsScalarsAndHists)
{
    StatsSet a, b;
    a.inc("x", 1.0);
    b.inc("x", 2.0);
    b.inc("y", 7.0);
    b.hist("h").add(3, 1.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 7.0);
    EXPECT_DOUBLE_EQ(a.histOrEmpty("h").weightAt(3), 1.0);
}

TEST(StatsSetTest, SerializeRoundTrips)
{
    StatsSet s;
    s.set("alpha", 1.25);
    s.set("beta", -3e17);
    s.set("tiny", 1e-300);
    s.hist("h1").add(-4, 0.5);
    s.hist("h1").add(9, 123456.75);
    s.hist("empty");

    StatsSet restored;
    ASSERT_TRUE(restored.deserialize(s.serialize()));
    EXPECT_DOUBLE_EQ(restored.get("alpha"), 1.25);
    EXPECT_DOUBLE_EQ(restored.get("beta"), -3e17);
    EXPECT_DOUBLE_EQ(restored.get("tiny"), 1e-300);
    EXPECT_DOUBLE_EQ(restored.histOrEmpty("h1").weightAt(-4), 0.5);
    EXPECT_DOUBLE_EQ(restored.histOrEmpty("h1").weightAt(9), 123456.75);
    // Round-trip again: serialization must be stable.
    EXPECT_EQ(restored.serialize(), s.serialize());
}

TEST(StatsSetTest, DeserializeRejectsGarbage)
{
    StatsSet s;
    EXPECT_FALSE(s.deserialize("x nonsense 12"));
    EXPECT_FALSE(s.deserialize("s keyonly"));
    EXPECT_FALSE(s.deserialize("h key 2 1 0.5"));  // truncated bucket list
}

TEST(TableTest, AlignedOutputContainsCells)
{
    Table t({"name", "value"});
    t.addRow({"alpha", Table::fmt(1.5, 2)});
    t.addRow({"b", Table::fmtInt(42)});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, CsvEscapesCommas)
{
    // RFC 4180 quoting (gcl::csvField), not a lossy rewrite of the comma.
    Table t({"a", "b"});
    t.addRow({"x,y", "1"});
    t.addRow({"say \"hi\"", "2%"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n\"x,y\",1\n\"say \"\"hi\"\"\",2%\n");
}

TEST(TableTest, FormatHelpers)
{
    EXPECT_EQ(Table::fmtPct(0.5, 1), "50.0%");
    EXPECT_EQ(Table::fmtInt(1234567), "1234567");
    EXPECT_EQ(Table::fmt(3.14159, 3), "3.142");
}

} // namespace
