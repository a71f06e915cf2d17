/**
 * @file
 * google-benchmark microbenchmarks of the core primitives: backward
 * dataflow classification, CFG/postdominator construction, the coalescer,
 * the L1 cache access path, the SIMT stack, the RNG and the gcl::trace
 * emission path (enabled, disabled and null-sink).
 */

#include <benchmark/benchmark.h>

#include "core/classifier.hh"
#include "ptx/builder.hh"
#include "ptx/cfg.hh"
#include "sim/cache.hh"
#include "sim/coalescer.hh"
#include "sim/simt_stack.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace
{

using namespace gcl;
using namespace gcl::ptx;
using DT = DataType;

/** A bfs-expand-shaped kernel (loops, divergence, mixed load classes). */
Kernel
makeIrregularKernel()
{
    KernelBuilder b("bench_kernel", 7);
    Reg tid = b.globalTidX();
    Reg p_row = b.ldParam(0);
    Reg p_col = b.ldParam(1);
    Reg p_data = b.ldParam(2);
    Reg n = b.ldParam(6);
    Label out = b.newLabel();
    Reg oob = b.setp(CmpOp::Ge, DT::U32, tid, n);
    b.braIf(oob, out);
    Reg start = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_row, tid, 4));
    Reg end =
        b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_row, tid, 4), 4);
    Reg i = b.mov(DT::U32, start);
    Label loop = b.newLabel();
    Label done = b.newLabel();
    b.place(loop);
    Reg fin = b.setp(CmpOp::Ge, DT::U32, i, end);
    b.braIf(fin, done);
    Reg id = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_col, i, 4));
    Reg v = b.ld(MemSpace::Global, DT::U32, b.elemAddr(p_data, id, 4));
    b.st(MemSpace::Global, DT::U32, b.elemAddr(p_data, tid, 4), v);
    b.assign(DT::U32, i, b.add(DT::U32, i, 1));
    b.bra(loop);
    b.place(done);
    b.place(out);
    b.exit();
    return b.build();
}

void
BM_ClassifierFullAnalysis(benchmark::State &state)
{
    const Kernel kernel = makeIrregularKernel();
    for (auto _ : state) {
        core::LoadClassifier classifier(kernel);
        benchmark::DoNotOptimize(classifier.numNonDeterministic());
    }
}
BENCHMARK(BM_ClassifierFullAnalysis);

void
BM_CfgConstruction(benchmark::State &state)
{
    const Kernel kernel = makeIrregularKernel();
    for (auto _ : state) {
        Cfg cfg(kernel);
        benchmark::DoNotOptimize(cfg.numBlocks());
    }
}
BENCHMARK(BM_CfgConstruction);

void
BM_CoalescerRandom(benchmark::State &state)
{
    Rng rng(1);
    std::vector<std::pair<unsigned, uint64_t>> addrs;
    for (unsigned lane = 0; lane < 32; ++lane)
        addrs.emplace_back(lane, rng.nextBounded(1 << 20) * 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::coalesce(addrs, 4, 128));
}
BENCHMARK(BM_CoalescerRandom);

void
BM_CoalescerSequential(benchmark::State &state)
{
    std::vector<std::pair<unsigned, uint64_t>> addrs;
    for (unsigned lane = 0; lane < 32; ++lane)
        addrs.emplace_back(lane, 0x1000 + lane * 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::coalesce(addrs, 4, 128));
}
BENCHMARK(BM_CoalescerSequential);

void
BM_CacheAccessStream(benchmark::State &state)
{
    sim::GpuConfig config;
    sim::MemPools pools;
    sim::Cache cache("bench", config.l1, pools);
    uint64_t addr = 0;
    for (auto _ : state) {
        const sim::ReqHandle req = pools.reqs.alloc();
        const uint64_t line = (addr += 128);
        pools.reqs.get(req).lineAddr = line;
        const auto outcome = cache.access(req, true);
        if (outcome == sim::AccessOutcome::Miss)
            cache.fill(line);
        pools.reqs.free(req);
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_CacheAccessStream);

void
BM_SimtStackDivergence(benchmark::State &state)
{
    for (auto _ : state) {
        sim::SimtStack stack;
        stack.reset(0xffffffffu, 100);
        stack.branch(0x0000ffffu, 10, 50);
        while (stack.pc() != 50)
            stack.advance();
        benchmark::DoNotOptimize(stack.activeMask());
    }
}
BENCHMARK(BM_SimtStackDivergence);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

// ---- gcl::trace overhead (EXPERIMENTS.md "Tracing overhead") ----

/** Full emission cost: buffer store, with a drain swallowing full buffers. */
void
BM_TraceEmitEnabled(benchmark::State &state)
{
    trace::TraceSink sink([](const trace::TraceEvent *, size_t) {}, 1 << 16);
    uint64_t cycle = 0;
    for (auto _ : state) {
        ++cycle;
        GCL_TRACE(&sink, trace::EventKind::ReqInject, cycle, cycle,
                  cycle * 128, 7, 3, trace::kFlagNonDet);
        benchmark::DoNotOptimize(sink.size());
    }
}
BENCHMARK(BM_TraceEmitEnabled);

/** The default production path: no sink attached at all. */
void
BM_TraceEmitNullSink(benchmark::State &state)
{
    trace::TraceSink *sink = nullptr;
    benchmark::DoNotOptimize(sink);
    uint64_t cycle = 0;
    for (auto _ : state) {
        ++cycle;
        GCL_TRACE(sink, trace::EventKind::ReqInject, cycle, cycle,
                  cycle * 128, 7, 3, trace::kFlagNonDet);
        benchmark::DoNotOptimize(cycle);
    }
}
BENCHMARK(BM_TraceEmitNullSink);

} // namespace

BENCHMARK_MAIN();
