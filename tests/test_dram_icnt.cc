/**
 * @file
 * DRAM channel and interconnect unit tests: FCFS latency/bandwidth,
 * bounded queues, crossbar arbitration and ordering, and a reference
 * model of the crossbar checked cycle by cycle under random traffic.
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <string>
#include <vector>

#include "guard/sim_error.hh"
#include "sim/dram.hh"
#include "sim/interconnect.hh"
#include "util/bitutil.hh"

namespace
{

using namespace gcl::sim;

/** Pool-backed request factory shared by every test in this file. */
class PoolTestBase : public ::testing::Test
{
  protected:
    ReqHandle
    makeReq(int sm, int partition, uint64_t line = 0)
    {
        const ReqHandle req = pools.reqs.alloc();
        MemRequest &r = pools.reqs.get(req);
        r.smId = sm;
        r.partition = partition;
        r.lineAddr = line;
        return req;
    }

    MemRequest &get(ReqHandle req) { return pools.reqs.get(req); }

    MemPools pools;
};

using DramTest = PoolTestBase;
using IcntTest = PoolTestBase;

GpuConfig
testConfig()
{
    GpuConfig config;
    config.numSms = 4;
    config.numPartitions = 2;
    config.icntLatency = 8;
    config.icntInjectQueueDepth = 2;
    config.icntRespQueueDepth = 2;
    config.dramLatency = 100;
    config.dramBurstCycles = 4;
    config.dramQueueDepth = 3;
    return config;
}

TEST_F(DramTest, SingleRequestLatency)
{
    const auto config = testConfig();
    DramChannel dram(config, pools);
    dram.push(makeReq(0, 0), 10);
    EXPECT_FALSE(dram.headReady(10 + config.dramLatency - 1));
    EXPECT_TRUE(dram.headReady(10 + config.dramLatency));
    EXPECT_EQ(get(dram.pop()).smId, 0);
    EXPECT_TRUE(dram.empty());
    EXPECT_EQ(dram.serviced(), 1u);
}

TEST_F(DramTest, BackToBackRequestsSerializeOnTheBurst)
{
    const auto config = testConfig();
    DramChannel dram(config, pools);
    dram.push(makeReq(0, 0), 0);
    dram.push(makeReq(1, 0), 0);
    dram.push(makeReq(2, 0), 0);
    // Ready times: 100, 104, 108 (4-cycle bursts serialize service).
    EXPECT_TRUE(dram.headReady(100));
    dram.pop();
    EXPECT_FALSE(dram.headReady(103));
    EXPECT_TRUE(dram.headReady(104));
    dram.pop();
    EXPECT_TRUE(dram.headReady(108));
}

TEST_F(DramTest, IdleChannelRestartsCleanly)
{
    const auto config = testConfig();
    DramChannel dram(config, pools);
    dram.push(makeReq(0, 0), 0);
    dram.pop();
    // Much later: latency measured from arrival, not from channelFreeAt.
    dram.push(makeReq(1, 0), 1000);
    EXPECT_FALSE(dram.headReady(1099));
    EXPECT_TRUE(dram.headReady(1100));
}

TEST_F(DramTest, QueueDepthEnforced)
{
    const auto config = testConfig();  // depth 3
    DramChannel dram(config, pools);
    dram.push(makeReq(0, 0), 0);
    dram.push(makeReq(1, 0), 0);
    dram.push(makeReq(2, 0), 0);
    EXPECT_FALSE(dram.canAccept());
    // Pushing past the depth is a device-model invariant violation: it
    // fails the run with a recoverable SimError, not a process abort.
    try {
        dram.push(makeReq(3, 0), 0);
        FAIL() << "push into a full queue accepted";
    } catch (const gcl::SimError &e) {
        EXPECT_EQ(e.kind(), gcl::SimError::Kind::Invariant);
        EXPECT_EQ(e.component(), "dram");
    }
}

TEST_F(IcntTest, RequestTraversalLatency)
{
    const auto config = testConfig();
    Interconnect icnt(config, pools);
    const ReqHandle req = makeReq(1, 0);
    ASSERT_TRUE(icnt.canInject(1));
    icnt.inject(req, 5);
    EXPECT_EQ(get(req).tInjected, 5u);

    icnt.cycle(5);  // crossbar moves the flit; arrives at 5 + latency
    EXPECT_FALSE(icnt.hasRequest(0, 5 + config.icntLatency - 1));
    EXPECT_TRUE(icnt.hasRequest(0, 5 + config.icntLatency));
    EXPECT_EQ(icnt.popRequest(0, 5 + config.icntLatency), req);
    EXPECT_TRUE(icnt.idle());
}

TEST_F(IcntTest, InjectQueueDepthGivesBackpressure)
{
    const auto config = testConfig();  // depth 2
    Interconnect icnt(config, pools);
    icnt.inject(makeReq(0, 0), 0);
    icnt.inject(makeReq(0, 0), 0);
    EXPECT_FALSE(icnt.canInject(0));
    EXPECT_TRUE(icnt.canInject(1));  // per-SM queues
}

TEST_F(IcntTest, OnePartitionAcceptsOneFlitPerCycle)
{
    const auto config = testConfig();
    Interconnect icnt(config, pools);
    // Two SMs target partition 0 simultaneously.
    icnt.inject(makeReq(0, 0), 0);
    icnt.inject(makeReq(1, 0), 0);
    icnt.cycle(0);   // only one crosses
    icnt.cycle(1);   // the other crosses
    const Cycle t = 1 + config.icntLatency;
    EXPECT_TRUE(icnt.hasRequest(0, t));
    icnt.popRequest(0, t);
    EXPECT_TRUE(icnt.hasRequest(0, t));
    icnt.popRequest(0, t);
    EXPECT_FALSE(icnt.hasRequest(0, t));
}

TEST_F(IcntTest, DistinctPartitionsTransferInParallel)
{
    const auto config = testConfig();
    Interconnect icnt(config, pools);
    icnt.inject(makeReq(0, 0), 0);
    icnt.inject(makeReq(1, 1), 0);
    icnt.cycle(0);
    const Cycle t = config.icntLatency;
    EXPECT_TRUE(icnt.hasRequest(0, t));
    EXPECT_TRUE(icnt.hasRequest(1, t));
}

TEST_F(IcntTest, ResponsePathRoundTrip)
{
    const auto config = testConfig();
    Interconnect icnt(config, pools);
    const ReqHandle req = makeReq(2, 1);
    ASSERT_TRUE(icnt.canRespond(1));
    icnt.respond(req, 50);
    EXPECT_EQ(get(req).tRespDepart, 50u);
    icnt.cycle(50);
    EXPECT_TRUE(icnt.hasResponse(2, 50 + config.icntLatency));
    EXPECT_EQ(icnt.popResponse(2, 50 + config.icntLatency), req);
}

TEST_F(IcntTest, PerSmOrderIsFifo)
{
    const auto config = testConfig();
    Interconnect icnt(config, pools);
    const ReqHandle first = makeReq(0, 0, 0x100);
    const ReqHandle second = makeReq(0, 0, 0x200);
    icnt.inject(first, 0);
    icnt.inject(second, 0);
    icnt.cycle(0);
    icnt.cycle(1);
    const Cycle t = 1 + config.icntLatency;
    EXPECT_EQ(get(icnt.popRequest(0, t)).lineAddr, 0x100u);
    EXPECT_EQ(get(icnt.popRequest(0, t)).lineAddr, 0x200u);
}

TEST_F(IcntTest, RoundRobinIsFairUnderContention)
{
    const auto config = testConfig();
    Interconnect icnt(config, pools);
    // SMs 0 and 1 keep injecting to partition 0; both must make progress
    // within a bounded window.
    int delivered[2] = {0, 0};
    Cycle now = 0;
    for (int round = 0; round < 20; ++round) {
        if (icnt.canInject(0))
            icnt.inject(makeReq(0, 0), now);
        if (icnt.canInject(1))
            icnt.inject(makeReq(1, 0), now);
        icnt.cycle(now);
        const Cycle arrival = now + config.icntLatency;
        while (icnt.hasRequest(0, arrival))
            ++delivered[get(icnt.popRequest(0, arrival)).smId];
        ++now;
    }
    EXPECT_GT(delivered[0], 3);
    EXPECT_GT(delivered[1], 3);
}

/**
 * The crossbar as documented, written from scratch: plain FIFOs with
 * ready cycles and the two round-robin rules. Request side: SMs are
 * visited once each from the pointer; an SM's head moves when its
 * partition has taken nothing yet this cycle and holds fewer than
 * partQueueDepth in-flight flits. Response side: partitions are visited
 * once each from the pointer; a head moves when its SM has taken nothing
 * yet this cycle. Both pointers advance by one every cycle.
 */
class CrossbarModel
{
  public:
    struct Flit
    {
        ReqHandle req;
        int dest;        //!< partition (request side) or SM (response)
        Cycle readyAt;   //!< meaningful once in flight
    };

    explicit CrossbarModel(const GpuConfig &config)
        : config(config), inject(config.numSms), toPart(config.numPartitions),
          respQ(config.numPartitions), toSm(config.numSms)
    {}

    bool
    canInject(unsigned sm) const
    {
        return inject[sm].size() < config.icntInjectQueueDepth;
    }

    bool
    canRespond(unsigned part) const
    {
        return respQ[part].size() < config.icntRespQueueDepth;
    }

    static bool
    ready(const std::deque<Flit> &q, Cycle now)
    {
        return !q.empty() && q.front().readyAt <= now;
    }

    void
    cycle(Cycle now)
    {
        std::vector<bool> part_taken(config.numPartitions, false);
        for (unsigned i = 0; i < config.numSms; ++i) {
            const unsigned sm = (reqRr + i) % config.numSms;
            if (inject[sm].empty())
                continue;
            Flit flit = inject[sm].front();
            const auto part = static_cast<unsigned>(flit.dest);
            if (part_taken[part] ||
                toPart[part].size() >= config.partQueueDepth)
                continue;
            part_taken[part] = true;
            flit.readyAt = now + config.icntLatency;
            toPart[part].push_back(flit);
            inject[sm].pop_front();
        }
        reqRr = (reqRr + 1) % config.numSms;

        std::vector<bool> sm_taken(config.numSms, false);
        for (unsigned i = 0; i < config.numPartitions; ++i) {
            const unsigned part = (respRr + i) % config.numPartitions;
            if (respQ[part].empty())
                continue;
            Flit flit = respQ[part].front();
            const auto sm = static_cast<unsigned>(flit.dest);
            if (sm_taken[sm])
                continue;
            sm_taken[sm] = true;
            flit.readyAt = now + config.icntLatency;
            toSm[sm].push_back(flit);
            respQ[part].pop_front();
        }
        respRr = (respRr + 1) % config.numPartitions;
    }

    GpuConfig config;
    std::vector<std::deque<Flit>> inject;   //!< per SM
    std::vector<std::deque<Flit>> toPart;   //!< per partition, in flight
    std::vector<std::deque<Flit>> respQ;    //!< per partition
    std::vector<std::deque<Flit>> toSm;     //!< per SM, in flight
    unsigned reqRr = 0;
    unsigned respRr = 0;
};

TEST_F(IcntTest, MatchesReferenceModel)
{
    // Seeded random traffic through cycle() on a small crossbar with
    // shallow queues, so credits, head-of-line blocking and same-cycle
    // contention all happen. The cycle follows the Gpu's order: SMs
    // inject, the crossbar arbitrates, partitions pop arrivals and
    // respond, SMs pop responses. Every cycle the crossbar must agree
    // with the model on canInject, canRespond, hasRequest, hasResponse,
    // the delivery-pending bit of every SM (after the arbitration and
    // after the pops) and every popped handle. Quiet phases let the
    // network drain.
    for (const unsigned latency : {0u, 3u}) {
        for (unsigned depths = 0; depths < 8; ++depths) {
            GpuConfig config;
            config.numSms = 3;
            config.numPartitions = 2;
            config.icntLatency = latency;
            config.icntInjectQueueDepth = 1 + (depths & 1);
            config.partQueueDepth = 1 + ((depths >> 1) & 1);
            config.icntRespQueueDepth = 1 + ((depths >> 2) & 1);
            const std::string label = "latency " + std::to_string(latency) +
                                      ", depths " + std::to_string(depths);

            Interconnect icnt(config, pools);
            CrossbarModel model(config);
            std::mt19937_64 rng(0x1c47 + latency * 8 + depths);
            auto chance = [&](unsigned percent) {
                return rng() % 100 < percent;
            };
            uint64_t moved = 0;

            for (Cycle now = 1; now < 3000; ++now) {
                // 60 busy cycles, then 40 quiet ones with no new traffic
                // and every endpoint draining.
                const bool busy = now % 100 < 60;
                for (unsigned sm = 0; sm < config.numSms; ++sm) {
                    ASSERT_EQ(icnt.canInject(static_cast<int>(sm)),
                              model.canInject(sm))
                        << label << ", cycle " << now << ", sm " << sm;
                    if (busy && model.canInject(sm) && chance(70)) {
                        const int part =
                            static_cast<int>(rng() % config.numPartitions);
                        const ReqHandle req =
                            makeReq(static_cast<int>(sm), part);
                        icnt.inject(req, now);
                        model.inject[sm].push_back({req, part, 0});
                    }
                }

                icnt.cycle(now);
                model.cycle(now);
                auto expect_pending = [&](const char *stage) {
                    for (unsigned sm = 0; sm < config.numSms; ++sm)
                        ASSERT_EQ(gcl::testBit(icnt.deliveryPending(), sm),
                                  !model.toSm[sm].empty())
                            << label << ", cycle " << now << ", sm " << sm
                            << ", " << stage;
                };
                expect_pending("after the arbitration");

                for (unsigned part = 0; part < config.numPartitions;
                     ++part) {
                    const bool has = CrossbarModel::ready(model.toPart[part],
                                                          now);
                    ASSERT_EQ(icnt.hasRequest(static_cast<int>(part), now),
                              has)
                        << label << ", cycle " << now << ", part " << part;
                    // A busy partition stalls half the time, which backs
                    // the request side up to its credits.
                    if (has && (!busy || chance(50))) {
                        const ReqHandle req =
                            icnt.popRequest(static_cast<int>(part), now);
                        ASSERT_EQ(req, model.toPart[part].front().req)
                            << label << ", cycle " << now;
                        model.toPart[part].pop_front();
                        pools.reqs.free(req);
                        ++moved;
                    }
                    ASSERT_EQ(icnt.canRespond(static_cast<int>(part)),
                              model.canRespond(part))
                        << label << ", cycle " << now << ", part " << part;
                    if (busy && model.canRespond(part) && chance(60)) {
                        const int sm =
                            static_cast<int>(rng() % config.numSms);
                        const ReqHandle req =
                            makeReq(sm, static_cast<int>(part));
                        icnt.respond(req, now);
                        model.respQ[part].push_back({req, sm, 0});
                    }
                }

                for (unsigned sm = 0; sm < config.numSms; ++sm) {
                    const bool has = CrossbarModel::ready(model.toSm[sm],
                                                          now);
                    ASSERT_EQ(icnt.hasResponse(static_cast<int>(sm), now),
                              has)
                        << label << ", cycle " << now << ", sm " << sm;
                    // An SM drains every deliverable response, as
                    // Sm::drainResponses does.
                    while (CrossbarModel::ready(model.toSm[sm], now)) {
                        ASSERT_TRUE(
                            icnt.hasResponse(static_cast<int>(sm), now));
                        const ReqHandle req =
                            icnt.popResponse(static_cast<int>(sm), now);
                        ASSERT_EQ(req, model.toSm[sm].front().req)
                            << label << ", cycle " << now;
                        model.toSm[sm].pop_front();
                        pools.reqs.free(req);
                        ++moved;
                    }
                    ASSERT_FALSE(icnt.hasResponse(static_cast<int>(sm), now))
                        << label << ", cycle " << now << ", sm " << sm;
                }
                expect_pending("after the pops");
            }
            EXPECT_GT(moved, 1000u) << label;
            // Free what is still in flight so the pool does not fill up
            // across configs.
            for (auto *side : {&model.inject, &model.toPart, &model.respQ,
                               &model.toSm})
                for (auto &q : *side)
                    for (const auto &flit : q)
                        pools.reqs.free(flit.req);
        }
    }
}

} // namespace
