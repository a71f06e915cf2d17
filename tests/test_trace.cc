/**
 * @file
 * gcl::trace tests: sink drain semantics, stats unchanged by tracing,
 * Chrome-JSON well-formedness, agreement between trace-derived op
 * durations and the simulator's own turnaround stats, stats JSON/CSV
 * export round-trips, and the GCL_DEBUG component filter.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>
#include <vector>

#include "ptx/builder.hh"
#include "sim/gpu.hh"
#include "trace/chrome_writer.hh"
#include "trace/export.hh"
#include "trace/json.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace
{

using namespace gcl;
using namespace gcl::ptx;
using DT = DataType;

// ---------------------------------------------------------------------
// TraceSink drain semantics
// ---------------------------------------------------------------------

TEST(TraceSink, DrainPreservesEveryEventInOrder)
{
    std::vector<trace::TraceEvent> collected;
    trace::TraceSink sink(
        [&](const trace::TraceEvent *events, size_t n) {
            collected.insert(collected.end(), events, events + n);
        },
        4);

    for (uint64_t c = 0; c < 10; ++c)
        sink.emit(trace::EventKind::ReqInject, c, c + 1, c * 128);
    sink.flush();

    EXPECT_EQ(sink.emitted(), 10u);
    ASSERT_EQ(collected.size(), 10u);
    for (size_t i = 0; i < collected.size(); ++i)
        EXPECT_EQ(collected[i].cycle, i);
}

TEST(TraceSink, MacroSkipsDisabledAndNullSinks)
{
    trace::TraceSink *null_sink = nullptr;
    GCL_TRACE(null_sink, trace::EventKind::ReqInject, 1, 1, 128);
    EXPECT_FALSE(GCL_TRACE_ACTIVE(null_sink));
}

// ---------------------------------------------------------------------
// End-to-end: a small kernel with det + nondet global loads
// ---------------------------------------------------------------------

/** out[tid] = data[idx[tid]] — idx load is D, data load is N. */
Kernel
makeGatherKernel()
{
    KernelBuilder b("gather", 3);
    Reg p_idx = b.ldParam(0);
    Reg p_data = b.ldParam(1);
    Reg p_out = b.ldParam(2);
    Reg tid = b.globalTidX();
    Reg i = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_idx, tid, 4));
    Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_data, i, 4));
    b.st(MemSpace::Global, DT::U32, b.elemAddr(p_out, tid, 4), v);
    return b.build();
}

constexpr uint32_t kThreads = 256;

/** Launch the gather kernel on @p gpu (which may carry a trace sink). */
void
runGather(sim::Gpu &gpu)
{
    Kernel k = makeGatherKernel();
    std::vector<uint32_t> idx(kThreads), data(kThreads);
    for (uint32_t i = 0; i < kThreads; ++i) {
        idx[i] = (i * 97 + 13) % kThreads;  // scattered gather pattern
        data[i] = i + 1000;
    }
    const uint64_t d_idx = gpu.deviceMalloc(kThreads * 4);
    const uint64_t d_data = gpu.deviceMalloc(kThreads * 4);
    const uint64_t d_out = gpu.deviceMalloc(kThreads * 4);
    gpu.memcpyToDevice(d_idx, idx.data(), kThreads * 4);
    gpu.memcpyToDevice(d_data, data.data(), kThreads * 4);
    gpu.launch(k, sim::Dim3{4, 1, 1}, sim::Dim3{64, 1, 1},
               {d_idx, d_data, d_out});

    std::vector<uint32_t> out(kThreads);
    gpu.memcpyToHost(out.data(), d_out, kThreads * 4);
    for (uint32_t i = 0; i < kThreads; ++i)
        ASSERT_EQ(out[i], data[idx[i]]) << i;
}

TEST(TraceSim, TracedRunExportsTheUntracedStats)
{
    // Tracing observes a run; it must not change what the run exports.
    sim::Gpu untraced;
    runGather(untraced);
    untraced.finalizeStats();

    uint64_t events = 0;
    trace::TraceSink sink(
        [&](const trace::TraceEvent *, size_t n) { events += n; });
    sim::Gpu traced;
    traced.attachTrace(&sink, 100);
    runGather(traced);
    sink.flush();
    traced.finalizeStats();

    EXPECT_GT(events, 0u);
    std::ostringstream untraced_json, traced_json;
    trace::exportStatsJson(untraced.stats().set(), untraced_json);
    trace::exportStatsJson(traced.stats().set(), traced_json);
    EXPECT_EQ(traced_json.str(), untraced_json.str());
}

TEST(TraceSim, EnabledSinkRecordsFullLifecycles)
{
    std::vector<trace::TraceEvent> events;
    trace::TraceSink sink(
        [&](const trace::TraceEvent *e, size_t n) {
            events.insert(events.end(), e, e + n);
        },
        1 << 12);
    sim::Gpu gpu;
    gpu.attachTrace(&sink, 100);
    runGather(gpu);
    sink.flush();

    size_t issues = 0, dones = 0, l1 = 0, completes = 0, counters = 0;
    for (const auto &ev : events) {
        switch (ev.kind) {
          case trace::EventKind::OpIssue: ++issues; break;
          case trace::EventKind::OpDone: ++dones; break;
          case trace::EventKind::ReqL1Access: ++l1; break;
          case trace::EventKind::ReqComplete: ++completes; break;
          case trace::EventKind::Counter: ++counters; break;
          default: break;
        }
    }
    EXPECT_GT(issues, 0u);
    EXPECT_EQ(issues, dones);  // every traced global load finishes
    EXPECT_GT(l1, 0u);
    EXPECT_GT(completes, 0u);
    EXPECT_GT(counters, 0u);   // timeline sampling ran
    EXPECT_EQ(events.size(), sink.emitted());
}

TEST(TraceSim, OpDurationsMatchTurnaroundStats)
{
    std::vector<trace::TraceEvent> events;
    trace::TraceSink sink(
        [&](const trace::TraceEvent *e, size_t n) {
            events.insert(events.end(), e, e + n);
        });
    sim::Gpu gpu;
    gpu.attachTrace(&sink, 0);
    runGather(gpu);
    sink.flush();
    gpu.finalizeStats();
    const StatsSet &stats = gpu.stats().set();

    // Pair OpIssue/OpDone by id and accumulate durations per class.
    std::unordered_map<uint64_t, uint64_t> issue_cycle;
    double sum[2] = {0, 0};
    uint64_t cnt[2] = {0, 0};
    for (const auto &ev : events) {
        if (ev.kind == trace::EventKind::OpIssue) {
            ASSERT_TRUE(issue_cycle.emplace(ev.id, ev.cycle).second);
        } else if (ev.kind == trace::EventKind::OpDone) {
            auto it = issue_cycle.find(ev.id);
            ASSERT_NE(it, issue_cycle.end());
            const int cls = (ev.flags & trace::kFlagNonDet) ? 1 : 0;
            sum[cls] += static_cast<double>(ev.cycle - it->second);
            ++cnt[cls];
            issue_cycle.erase(it);
        }
    }
    EXPECT_TRUE(issue_cycle.empty());

    // The trace is a different observation path than SimStats; the two
    // must agree exactly on counts and turnaround sums per class.
    EXPECT_EQ(static_cast<double>(cnt[0]), stats.get("turn.cnt.det"));
    EXPECT_EQ(static_cast<double>(cnt[1]), stats.get("turn.cnt.nondet"));
    EXPECT_DOUBLE_EQ(sum[0], stats.get("turn.sum.det"));
    EXPECT_DOUBLE_EQ(sum[1], stats.get("turn.sum.nondet"));
    EXPECT_GT(cnt[0], 0u);
    EXPECT_GT(cnt[1], 0u);
}

TEST(TraceSim, ChromeJsonIsWellFormedAndBalanced)
{
    std::ostringstream json;
    trace::ChromeTraceWriter writer(json);
    writer.beginProcess(1, "gather");

    trace::TraceSink sink(writer.drain(), 1 << 12);
    sim::Gpu gpu;
    gpu.attachTrace(&sink, 50);
    runGather(gpu);
    sink.flush();
    writer.close();

    const auto v = trace::validateChromeTrace(json.str());
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_GT(v.events, 0u);
    EXPECT_GT(v.asyncBegins, 0u);
    EXPECT_EQ(v.asyncBegins, v.asyncEnds);
    EXPECT_EQ(v.unmatchedAsyncs, 0u);
    EXPECT_GT(v.counters, 0u);

    // And it parses as plain JSON (what Perfetto's loader does first).
    trace::JsonValue root;
    std::string error;
    ASSERT_TRUE(trace::parseJson(json.str(), root, &error)) << error;
    ASSERT_TRUE(root.isArray());
}

TEST(TraceValidate, RejectsMalformedAndUnbalancedTraces)
{
    EXPECT_FALSE(trace::validateChromeTrace("not json").ok);
    EXPECT_FALSE(trace::validateChromeTrace("{}").ok);
    // A "b" without its "e" must be flagged.
    const auto v = trace::validateChromeTrace(
        R"([{"ph":"b","cat":"req","id":"0x1","name":"s","ts":1,"pid":1,"tid":0}])");
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.unmatchedAsyncs, 1u);
}

// ---------------------------------------------------------------------
// Stats export
// ---------------------------------------------------------------------

TEST(StatsExport, JsonRoundTripsEveryFinalizedKey)
{
    sim::Gpu gpu;
    runGather(gpu);
    gpu.finalizeStats();
    const StatsSet &stats = gpu.stats().set();

    std::ostringstream out;
    trace::exportStatsJson(stats, out);

    StatsSet back;
    std::string error;
    ASSERT_TRUE(trace::importStatsJson(out.str(), back, &error)) << error;

    ASSERT_EQ(back.scalars().size(), stats.scalars().size());
    for (const auto &[key, value] : stats.scalars())
        EXPECT_DOUBLE_EQ(back.get(key), value) << key;
    ASSERT_EQ(back.hists().size(), stats.hists().size());
    for (const auto &[key, hist] : stats.hists()) {
        const Histogram &h = back.histOrEmpty(key);
        EXPECT_DOUBLE_EQ(h.totalWeight(), hist.totalWeight()) << key;
        EXPECT_EQ(h.buckets().size(), hist.buckets().size()) << key;
        for (const auto &[bucket, weight] : hist.buckets())
            EXPECT_DOUBLE_EQ(h.weightAt(bucket), weight)
                << key << " bucket " << bucket;
    }
}

TEST(StatsExport, JsonContainsTheDocumentedKeyFamilies)
{
    sim::Gpu gpu;
    runGather(gpu);
    gpu.finalizeStats();

    std::ostringstream out;
    trace::exportStatsJson(gpu.stats().set(), out);
    StatsSet back;
    ASSERT_TRUE(trace::importStatsJson(out.str(), back, nullptr));

    // One representative per scalar family documented in sim/stats.hh.
    for (const char *key :
         {"cycles", "launches", "ctas_launched", "threads_per_cta",
          "warp_insts", "thread_insts", "sm_cycles", "busy.ldst",
          "gload.warps.det", "gload.warps.nondet", "gload.reqs.det",
          "gload.reqs.nondet", "gload.active.det", "gload.active.nondet",
          "gstore.warps",
          "l1.outcome.hit", "l1.outcome.miss", "l1.outcome.fail_mshr",
          "l1.access.det", "l1.miss.nondet", "l2.access.det",
          "l2.queries.p0", "turn.cnt.det", "turn.sum.nondet",
          "turn.unloaded.det", "turn.rsrv_prev.nondet",
          "turn.rsrv_cur.nondet", "turn.mem.det", "part.stall_cycles",
          "blocks.count", "blocks.accesses"})
        EXPECT_TRUE(back.has(key)) << key;
    EXPECT_GT(back.histOrEmpty("cta_distance").totalWeight(), 0.0);
    EXPECT_GT(back.histOrEmpty("block_reuse").totalWeight(), 0.0);
}

TEST(StatsExport, ParsedObjectImportRejectsANonIntegerBucket)
{
    // The parsed-object importer (what the --stats-json reader calls on
    // each app record) checks bucket keys as strictly as the text one.
    const std::string good = R"({"scalars": {"cycles": 5},
        "histograms": {"h": {"buckets": {"0": 2, "-3": 1}}}})";
    trace::JsonValue root;
    ASSERT_TRUE(trace::parseJson(good, root, nullptr));
    StatsSet stats;
    std::string error;
    ASSERT_TRUE(trace::importStatsJson(root, stats, &error)) << error;
    EXPECT_EQ(stats.get("cycles"), 5.0);
    EXPECT_EQ(stats.histOrEmpty("h").weightAt(-3), 1.0);

    std::string bad = good;
    bad.replace(bad.find("\"0\""), 3, "\"0x\"");
    ASSERT_TRUE(trace::parseJson(bad, root, nullptr));
    EXPECT_FALSE(trace::importStatsJson(root, stats, &error));
    EXPECT_EQ(error, "histogram 'h' bucket '0x' is not an integer");
}

TEST(StatsExport, StatsFileRecordsRoundTripWithTheirFailure)
{
    // The one writer and the one reader of the --stats-json layout: a
    // failed run's record comes back field for field beside a clean one,
    // and writes back byte for byte.
    trace::StatsRecord clean;
    clean.name = "gaus";
    clean.category = "linear";
    clean.machine = "c2050";
    clean.verified = true;
    clean.fingerprint = 0x0123456789abcdefULL;
    clean.stats.set("cycles", 41.5);
    clean.stats.hist("h").add(-2, 0.25);
    trace::StatsRecord failed;
    failed.name = "bpr";
    failed.failure = {true, "fault_injected", "fault", 2000,
                      "stop \"here\"", "line 1\nline 2"};
    failed.stats.set("ctas_launched", 3);

    std::ostringstream out;
    trace::exportStatsFile({clean, failed}, out);
    trace::JsonValue root;
    std::string error;
    ASSERT_TRUE(trace::parseJson(out.str(), root, &error)) << error;
    std::vector<trace::StatsRecord> back;
    ASSERT_TRUE(trace::importStatsFile(root, back, &error)) << error;
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].machine, "c2050");
    EXPECT_TRUE(back[0].verified);
    EXPECT_EQ(back[0].fingerprint, clean.fingerprint);
    EXPECT_FALSE(back[0].failure.failed);
    EXPECT_EQ(back[0].stats.serialize(), clean.stats.serialize());
    const SimFailure &f = back[1].failure;
    EXPECT_TRUE(f.failed);
    EXPECT_EQ(f.kind, "fault_injected");
    EXPECT_EQ(f.component, "fault");
    EXPECT_EQ(f.cycle, 2000u);
    EXPECT_EQ(f.message, "stop \"here\"");
    EXPECT_EQ(f.detail, "line 1\nline 2");
    EXPECT_FALSE(back[1].verified);
    std::ostringstream again;
    trace::exportStatsFile(back, again);
    EXPECT_EQ(again.str(), out.str());

    // A field that is present must have its type.
    for (const char *field :
         {R"("verified": 1)", R"("category": 7)", R"("fingerprint": "0x12")",
          R"("failure": {"kind": "hang"})", R"("failure": {"cycle": -1})",
          R"("failure": {"cycle": 3, "message": 4})"}) {
        const std::string text = std::string(R"({"apps": [{"name": "a", )") +
                                 field +
                                 R"(, "stats": {"scalars": {},
                                      "histograms": {}}}]})";
        ASSERT_TRUE(trace::parseJson(text, root, nullptr)) << field;
        EXPECT_FALSE(trace::importStatsFile(root, back, &error)) << field;
        EXPECT_EQ(error.rfind("app 'a': ", 0), 0u) << error;
    }
}

TEST(StatsExport, CsvListsScalarsAndHistogramBuckets)
{
    StatsSet stats;
    stats.set("cycles", 123);
    stats.set("gload.warps", 7.5);
    stats.hist("cta_distance").add(1, 2);
    stats.hist("cta_distance").add(4, 1);

    std::ostringstream out;
    trace::exportStatsCsv(stats, out);
    const std::string csv = out.str();
    EXPECT_NE(csv.find("kind,key,bucket,value\n"), std::string::npos);
    EXPECT_NE(csv.find("scalar,cycles,,123\n"), std::string::npos);
    EXPECT_NE(csv.find("scalar,gload.warps,,7.5\n"), std::string::npos);
    EXPECT_NE(csv.find("hist,cta_distance,1,2\n"), std::string::npos);
    EXPECT_NE(csv.find("hist,cta_distance,4,1\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// GCL_DEBUG component filter (compile-time)
// ---------------------------------------------------------------------

TEST(DebugFilter, ComponentListSemantics)
{
    using gcl::detail::debugComponentEnabled;
    static_assert(!debugComponentEnabled("", "gpu"));
    static_assert(debugComponentEnabled("all", "gpu"));
    static_assert(debugComponentEnabled("gpu", "gpu"));
    static_assert(debugComponentEnabled("sm,gpu,l2", "gpu"));
    static_assert(!debugComponentEnabled("sm,l2", "gpu"));
    static_assert(!debugComponentEnabled("gpux", "gpu"));
    static_assert(!debugComponentEnabled("gpu", "gp"));

    // And the macro itself compiles against a component literal.
    GCL_DEBUG("test", "value=", 42);
    SUCCEED();
}

} // namespace
