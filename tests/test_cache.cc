/**
 * @file
 * Cache and MSHR unit tests: the outcome taxonomy (hit, hit-reserved,
 * miss, reservation fails), LRU replacement, reserved-line pinning, and
 * fill/merge behavior — parameterized over cache geometries.
 */

#include <gtest/gtest.h>

#include "guard/sim_error.hh"
#include "sim/cache.hh"

namespace
{

using namespace gcl::sim;

/** Pool-backed request factory shared by every test in this file. */
class CacheTest : public ::testing::Test
{
  protected:
    ReqHandle
    makeReq(uint64_t line_addr)
    {
        const ReqHandle req = pools.reqs.alloc();
        pools.reqs.get(req).lineAddr = line_addr;
        return req;
    }

    /** Walk a fill/release chain into a vector (head first). */
    std::vector<ReqHandle>
    chain(ReqHandle head)
    {
        std::vector<ReqHandle> out;
        for (ReqHandle r = head; r != kNullHandle;
             r = pools.reqs.get(r).nextWaiting)
            out.push_back(r);
        return out;
    }

    MemPools pools;
};

CacheConfig
smallConfig()
{
    // 2 sets x 2 ways x 128B lines; 2 MSHRs with merge depth 2.
    CacheConfig config;
    config.sizeBytes = 512;
    config.lineBytes = 128;
    config.assoc = 2;
    config.mshrEntries = 2;
    config.mshrMaxMerge = 2;
    return config;
}

TEST_F(CacheTest, ColdMissThenHitAfterFill)
{
    Cache cache("t", smallConfig(), pools);
    const ReqHandle req = makeReq(0);
    EXPECT_EQ(cache.access(req, true), AccessOutcome::Miss);
    EXPECT_FALSE(cache.isHit(0));
    const auto merged = chain(cache.fill(0));
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0], req);
    EXPECT_TRUE(cache.isHit(0));
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Hit);
}

TEST_F(CacheTest, ReservedLineMergesSecondaryMisses)
{
    Cache cache("t", smallConfig(), pools);
    const ReqHandle first = makeReq(0);
    const ReqHandle second = makeReq(0);
    EXPECT_EQ(cache.access(first, true), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(second, true), AccessOutcome::HitReserved);
    const auto merged = chain(cache.fill(0));
    ASSERT_EQ(merged.size(), 2u);
}

TEST_F(CacheTest, MergeListOverflowIsMshrFail)
{
    Cache cache("t", smallConfig(), pools);  // merge depth 2
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::HitReserved);
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::FailMshr);
}

TEST_F(CacheTest, MshrExhaustionIsMshrFail)
{
    Cache cache("t", smallConfig(), pools);  // 2 MSHR entries
    // Two primary misses in different sets take both entries.
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(makeReq(128), true), AccessOutcome::Miss);
    // Third distinct line: set has ways free but MSHRs are gone.
    EXPECT_EQ(cache.access(makeReq(256), true), AccessOutcome::FailMshr);
}

TEST_F(CacheTest, AllWaysReservedIsTagFail)
{
    auto config = smallConfig();
    config.mshrEntries = 8;  // plenty of MSHRs: isolate the tag fail
    Cache cache("t", config, pools);
    // Set 0 holds lines 0, 256, 512, ... (2 sets). Reserve both ways.
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(makeReq(256), true), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(makeReq(512), true), AccessOutcome::FailTag);
    // The other set is unaffected.
    EXPECT_EQ(cache.access(makeReq(128), true), AccessOutcome::Miss);
}

TEST_F(CacheTest, NoInterconnectSpaceIsIcntFail)
{
    Cache cache("t", smallConfig(), pools);
    EXPECT_EQ(cache.access(makeReq(0), false), AccessOutcome::FailIcnt);
    // Nothing was reserved by the failed attempt.
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
}

TEST_F(CacheTest, FailedAccessHasNoSideEffects)
{
    Cache cache("t", smallConfig(), pools);
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(makeReq(256), true), AccessOutcome::Miss);
    // Tag fail must not consume an MSHR or evict anything.
    EXPECT_EQ(cache.access(makeReq(512), true), AccessOutcome::FailTag);
    const auto merged0 = chain(cache.fill(0));
    EXPECT_EQ(merged0.size(), 1u);
    EXPECT_TRUE(cache.isHit(0));
}

TEST_F(CacheTest, FillOutsideTheSetIntoAFreeMshrKeepsEveryFail)
{
    // The LD/ST head's fill rule (Sm::receiveResponse): a frozen fail
    // stays frozen through a fill that lands outside the head line's set
    // while the MSHR has a free entry. Sets here: 0 holds lines 0, 256,
    // 512, ...; 1 holds 128, 384, ...
    auto fill_elsewhere_keeps = [&](Cache &cache, uint64_t head,
                                    bool can_inject, AccessOutcome fail) {
        ASSERT_EQ(cache.access(makeReq(head), can_inject), fail);
        ASSERT_FALSE(cache.sameSet(head, 128));
        ASSERT_FALSE(cache.mshrFull());
        EXPECT_EQ(chain(cache.fill(128)).size(), 1u);
        EXPECT_EQ(cache.access(makeReq(head), can_inject), fail)
            << toString(fail);
    };
    auto config = smallConfig();
    config.mshrEntries = 8;
    {
        // FailTag: both ways of set 0 reserved.
        Cache cache("t", config, pools);
        EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
        EXPECT_EQ(cache.access(makeReq(256), true), AccessOutcome::Miss);
        EXPECT_EQ(cache.access(makeReq(128), true), AccessOutcome::Miss);
        fill_elsewhere_keeps(cache, 512, true, AccessOutcome::FailTag);
    }
    {
        // FailMshr: line 0's merge list is full (depth 2).
        Cache cache("t", config, pools);
        EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
        EXPECT_EQ(cache.access(makeReq(0), true),
                  AccessOutcome::HitReserved);
        EXPECT_EQ(cache.access(makeReq(128), true), AccessOutcome::Miss);
        fill_elsewhere_keeps(cache, 0, true, AccessOutcome::FailMshr);
    }
    {
        // FailIcnt: tag and MSHR checks pass, no injection space.
        Cache cache("t", config, pools);
        EXPECT_EQ(cache.access(makeReq(128), true), AccessOutcome::Miss);
        fill_elsewhere_keeps(cache, 0, false, AccessOutcome::FailIcnt);
    }
    {
        // Why the rule's second clause exists: with the MSHR full, a fill
        // in any set frees the entry a FailMshr head waits on.
        Cache cache("t", smallConfig(), pools);  // 2 MSHR entries
        EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Miss);
        EXPECT_EQ(cache.access(makeReq(128), true), AccessOutcome::Miss);
        EXPECT_EQ(cache.access(makeReq(256), true), AccessOutcome::FailMshr);
        EXPECT_TRUE(cache.mshrFull());
        EXPECT_FALSE(cache.sameSet(256, 128));
        EXPECT_EQ(chain(cache.fill(128)).size(), 1u);
        EXPECT_EQ(cache.access(makeReq(256), true), AccessOutcome::Miss);
    }
}

TEST_F(CacheTest, LruEvictsLeastRecentlyUsed)
{
    Cache cache("t", smallConfig(), pools);
    // Fill both ways of set 0 with lines 0 and 256.
    cache.access(makeReq(0), true);
    cache.fill(0);
    cache.access(makeReq(256), true);
    cache.fill(256);
    // Touch line 0 so line 256 is LRU.
    EXPECT_EQ(cache.access(makeReq(0), true), AccessOutcome::Hit);
    // Miss on 512 evicts 256, not 0.
    EXPECT_EQ(cache.access(makeReq(512), true), AccessOutcome::Miss);
    cache.fill(512);
    EXPECT_TRUE(cache.isHit(0));
    EXPECT_TRUE(cache.isHit(512));
    EXPECT_FALSE(cache.isHit(256));
}

TEST_F(CacheTest, ReservedLineIsNotEvictable)
{
    Cache cache("t", smallConfig(), pools);
    // Reserve line 0 (in flight), fill line 256: both ways of set 0 used.
    cache.access(makeReq(0), true);
    cache.access(makeReq(256), true);
    cache.fill(256);
    // A new miss in set 0 must evict 256 (valid), never the reserved 0.
    EXPECT_EQ(cache.access(makeReq(512), true), AccessOutcome::Miss);
    const auto merged = chain(cache.fill(0));  // the original fill still lands
    EXPECT_EQ(merged.size(), 1u);
    EXPECT_TRUE(cache.isHit(0));
}

TEST_F(CacheTest, FillWithoutReservationIsRecoverableError)
{
    // A stray fill means the cache/MSHR handshake is broken: the run dies
    // with SimError{Invariant}, not a process abort (gcl::guard taxonomy).
    Cache cache("t", smallConfig(), pools);
    try {
        cache.fill(0);
        FAIL() << "fill without a reservation accepted";
    } catch (const gcl::SimError &e) {
        EXPECT_EQ(e.kind(), gcl::SimError::Kind::Invariant);
        EXPECT_EQ(e.component(), "t");
        EXPECT_NE(e.message().find("not reserved"), std::string::npos);
    }
}

/** Parameterized sweep: geometry invariants hold across shapes. */
class CacheGeometry
    : public CacheTest,
      public ::testing::WithParamInterface<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(CacheGeometry, FillsWholeCapacityWithoutEviction)
{
    const auto [size_kb, assoc] = GetParam();
    CacheConfig config;
    config.sizeBytes = size_kb * 1024;
    config.lineBytes = 128;
    config.assoc = assoc;
    config.mshrEntries = 4096;
    config.mshrMaxMerge = 4;
    Cache cache("t", config, pools);

    const uint32_t lines = config.sizeBytes / config.lineBytes;
    for (uint32_t i = 0; i < lines; ++i) {
        ASSERT_EQ(cache.access(makeReq(uint64_t{i} * 128), true),
                  AccessOutcome::Miss);
        cache.fill(uint64_t{i} * 128);
    }
    // Every line still hits: the cache held its full capacity.
    for (uint32_t i = 0; i < lines; ++i)
        ASSERT_EQ(cache.access(makeReq(uint64_t{i} * 128), true),
                  AccessOutcome::Hit);
    // One more distinct line evicts exactly one resident line.
    ASSERT_EQ(cache.access(makeReq(uint64_t{lines} * 128), true),
              AccessOutcome::Miss);
    cache.fill(uint64_t{lines} * 128);
    uint32_t hits = 0;
    for (uint32_t i = 0; i <= lines; ++i)
        hits += cache.isHit(uint64_t{i} * 128);
    EXPECT_EQ(hits, lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(16u, 4u),    // the L1D shape
                      std::make_tuple(128u, 8u),   // the L2 slice shape
                      std::make_tuple(4u, 1u),     // direct mapped
                      std::make_tuple(8u, 2u),
                      std::make_tuple(64u, 16u)));

using MshrTest = CacheTest;

TEST_F(MshrTest, LifecycleAndLimits)
{
    Mshr mshr(2, 3, pools);
    EXPECT_FALSE(mshr.full());
    EXPECT_FALSE(mshr.hasEntry(0));

    mshr.allocate(0, makeReq(0));
    EXPECT_TRUE(mshr.hasEntry(0));
    EXPECT_TRUE(mshr.canMerge(0));
    mshr.merge(0, makeReq(0));
    mshr.merge(0, makeReq(0));
    EXPECT_FALSE(mshr.canMerge(0));  // merge depth 3 reached

    mshr.allocate(128, makeReq(128));
    EXPECT_TRUE(mshr.full());

    const auto released = chain(mshr.release(0));
    EXPECT_EQ(released.size(), 3u);
    EXPECT_FALSE(mshr.hasEntry(0));
    EXPECT_FALSE(mshr.full());
}

TEST_F(MshrTest, DoubleAllocateIsRecoverableError)
{
    Mshr mshr(4, 4, pools);
    mshr.allocate(0, makeReq(0));
    try {
        mshr.allocate(0, makeReq(0));
        FAIL() << "double allocate accepted";
    } catch (const gcl::SimError &e) {
        EXPECT_EQ(e.kind(), gcl::SimError::Kind::Invariant);
        EXPECT_NE(e.message().find("double allocate"), std::string::npos);
    }
}

} // namespace
