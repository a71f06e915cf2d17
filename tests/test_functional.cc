/**
 * @file
 * Functional-executor tests via micro-kernels: ALU semantics per type,
 * conversions, comparisons, predication, special registers, atomics.
 * Each kernel stores its results to global memory; the test reads them
 * back — exercising the full issue/execute/writeback path. The last test
 * drives two WarpExecutors directly to pin the at-issue global write rule
 * for atomics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "ptx/builder.hh"
#include "sim/functional.hh"
#include "sim/gpu.hh"

namespace
{

using namespace gcl;
using namespace gcl::ptx;
using DT = DataType;

/** Run a 1-warp kernel built by @p body; returns 32 result words. */
std::vector<uint64_t>
runLanes(const std::function<void(KernelBuilder &, Reg out)> &body,
         unsigned lanes = 32)
{
    KernelBuilder b("micro", 1);
    Reg out = b.ldParam(0);
    body(b, out);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d_out = gpu.deviceMalloc(32 * 8);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{lanes, 1, 1}, {d_out});

    std::vector<uint64_t> result(32);
    gpu.memcpyToHost(result.data(), d_out, 32 * 8);
    return result;
}

/** Store a per-lane u64 value computed from tid. */
void
storeLane(KernelBuilder &b, Reg out, Reg value)
{
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    b.st(MemSpace::Global, DT::U64, b.elemAddr(out, tid, 8), value);
}

TEST(Functional, IntegerAddWraps32)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg v = b.add(DT::U32, 0xfffffffe, SpecialReg::TidX);
        storeLane(b, out, v);
    });
    EXPECT_EQ(r[0], 0xfffffffeull);
    EXPECT_EQ(r[1], 0xffffffffull);
    EXPECT_EQ(r[2], 0x0ull);  // wrapped and zero-extended
    EXPECT_EQ(r[3], 0x1ull);
}

TEST(Functional, SignedOpsSignExtend)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg v = b.sub(DT::S32, 0, SpecialReg::TidX);  // -tid
        storeLane(b, out, v);
    });
    EXPECT_EQ(r[0], 0u);
    EXPECT_EQ(r[1], static_cast<uint64_t>(-1));
    EXPECT_EQ(r[5], static_cast<uint64_t>(-5));
}

TEST(Functional, SignedDivisionAndRemainder)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg x = b.sub(DT::S32, 3, SpecialReg::TidX);    // 3 - tid
        Reg q = b.div(DT::S32, x, 2);
        Reg rem = b.rem(DT::S32, x, 2);
        Reg packed = b.or_(DT::U64, b.shl(DT::U64, q, 32),
                           b.and_(DT::U64, rem, 0xffffffff));
        storeLane(b, out, packed);
    });
    // lane 5: x = -2: q = -1, rem = 0 (C++ semantics)
    EXPECT_EQ(static_cast<int32_t>(r[5] >> 32), -1);
    EXPECT_EQ(static_cast<int32_t>(r[5] & 0xffffffff), 0);
    // lane 4: x = -1: q = 0, rem = -1
    EXPECT_EQ(static_cast<int32_t>(r[4] >> 32), 0);
    EXPECT_EQ(static_cast<int32_t>(r[4] & 0xffffffff), -1);
}

TEST(Functional, DivisionByZeroYieldsZero)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg q = b.div(DT::U32, 100, SpecialReg::TidX);  // lane 0: /0
        storeLane(b, out, q);
    });
    EXPECT_EQ(r[0], 0u);
    EXPECT_EQ(r[1], 100u);
    EXPECT_EQ(r[3], 33u);
}

TEST(Functional, MulHiUnsigned32)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg v = b.mulHi(DT::U32, 0x80000000u, SpecialReg::TidX);
        storeLane(b, out, v);
    });
    EXPECT_EQ(r[2], 1u);   // 0x80000000 * 2 >> 32
    EXPECT_EQ(r[3], 1u);
    EXPECT_EQ(r[4], 2u);
}

TEST(Functional, ShiftsMaskTheAmount)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg v = b.shl(DT::U32, 1, SpecialReg::TidX);
        storeLane(b, out, v);
    });
    EXPECT_EQ(r[31], 0x80000000ull);
    const auto r64 = runLanes([](KernelBuilder &b, Reg out) {
        Reg v = b.shr(DT::S32, int(0x80000000), SpecialReg::TidX);
        storeLane(b, out, v);
    });
    // Arithmetic shift of a negative 32-bit value, sign-extended.
    EXPECT_EQ(static_cast<int64_t>(r64[1]),
              static_cast<int64_t>(int32_t(0x80000000) >> 1));
}

TEST(Functional, FloatArithmeticMatchesHost)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg x = b.cvt(DT::F32, DT::U32, SpecialReg::TidX);
        Reg v = b.mad(DT::F32, x, immF32(1.5f), immF32(0.25f));
        storeLane(b, out, v);
    });
    for (unsigned lane = 0; lane < 32; ++lane) {
        float f;
        const uint32_t bits = static_cast<uint32_t>(r[lane]);
        std::memcpy(&f, &bits, 4);
        EXPECT_FLOAT_EQ(f, 1.5f * lane + 0.25f) << lane;
    }
}

TEST(Functional, DoublePrecisionRoundTrip)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg x = b.cvt(DT::F64, DT::U32, SpecialReg::TidX);
        Reg v = b.mul(DT::F64, x, immF64(0.5));
        storeLane(b, out, v);
    });
    double d;
    std::memcpy(&d, &r[7], 8);
    EXPECT_DOUBLE_EQ(d, 3.5);
}

TEST(Functional, SfuOpsComputeTranscendentals)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg x = b.cvt(DT::F32, DT::U32,
                      b.add(DT::U32, SpecialReg::TidX, 1));
        Reg v = b.sfu(Opcode::Rsqrt, DT::F32, x);
        storeLane(b, out, v);
    });
    float f;
    const uint32_t bits = static_cast<uint32_t>(r[3]);
    std::memcpy(&f, &bits, 4);
    EXPECT_NEAR(f, 0.5f, 1e-6f);
}

TEST(Functional, SetpAndSelp)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg p = b.setp(CmpOp::Lt, DT::U32, SpecialReg::TidX, 16);
        Reg v = b.selp(DT::U32, 111, 222, p);
        storeLane(b, out, v);
    });
    EXPECT_EQ(r[0], 111u);
    EXPECT_EQ(r[15], 111u);
    EXPECT_EQ(r[16], 222u);
    EXPECT_EQ(r[31], 222u);
}

TEST(Functional, FloatComparisons)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg x = b.cvt(DT::F32, DT::U32, SpecialReg::TidX);
        Reg p = b.setp(CmpOp::Ge, DT::F32, x, immF32(15.5f));
        storeLane(b, out, p);
    });
    EXPECT_EQ(r[15], 0u);
    EXPECT_EQ(r[16], 1u);
}

TEST(Functional, CvtTruncatesFloatToInt)
{
    const auto r = runLanes([](KernelBuilder &b, Reg out) {
        Reg x = b.cvt(DT::F32, DT::U32, SpecialReg::TidX);
        Reg scaled = b.mul(DT::F32, x, immF32(0.75f));
        Reg v = b.cvt(DT::U32, DT::F32, scaled);
        storeLane(b, out, v);
    });
    EXPECT_EQ(r[4], 3u);   // 3.0 exactly
    EXPECT_EQ(r[5], 3u);   // 3.75 truncates
}

TEST(Functional, SpecialRegistersReflectGeometry)
{
    KernelBuilder b("geom", 1);
    Reg out = b.ldParam(0);
    Reg linear = b.globalTidX();
    // Pack (ctaid.x, ntid.x, tid.x) to check each lane's view.
    Reg packed = b.or_(
        DT::U64,
        b.shl(DT::U64, SpecialReg::CtaIdX, 40),
        b.or_(DT::U64, b.shl(DT::U64, SpecialReg::NTidX, 20),
              b.mov(DT::U64, SpecialReg::TidX)));
    b.st(MemSpace::Global, DT::U64, b.elemAddr(out, linear, 8), packed);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d_out = gpu.deviceMalloc(128 * 8);
    gpu.launch(k, sim::Dim3{4, 1, 1}, sim::Dim3{32, 1, 1}, {d_out});
    std::vector<uint64_t> r(128);
    gpu.memcpyToHost(r.data(), d_out, 128 * 8);
    for (uint32_t i = 0; i < 128; ++i) {
        EXPECT_EQ(r[i] >> 40, i / 32) << i;             // ctaid.x
        EXPECT_EQ((r[i] >> 20) & 0xfffff, 32u) << i;    // ntid.x
        EXPECT_EQ(r[i] & 0xfffff, i % 32) << i;         // tid.x
    }
}

TEST(Functional, TwoDimensionalThreadIds)
{
    KernelBuilder b("tid2d", 1);
    Reg out = b.ldParam(0);
    Reg tx = b.mov(DT::U32, SpecialReg::TidX);
    Reg ty = b.mov(DT::U32, SpecialReg::TidY);
    Reg linear = b.mad(DT::U32, ty, SpecialReg::NTidX, tx);
    Reg packed = b.or_(DT::U64, b.shl(DT::U64, ty, 16),
                       b.mov(DT::U64, tx));
    b.st(MemSpace::Global, DT::U64, b.elemAddr(out, linear, 8), packed);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d_out = gpu.deviceMalloc(64 * 8);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{8, 8, 1}, {d_out});
    std::vector<uint64_t> r(64);
    gpu.memcpyToHost(r.data(), d_out, 64 * 8);
    for (uint32_t ty = 0; ty < 8; ++ty)
        for (uint32_t tx = 0; tx < 8; ++tx)
            EXPECT_EQ(r[ty * 8 + tx], (uint64_t{ty} << 16) | tx);
}

TEST(Functional, AtomicAddSerializesWithinWarp)
{
    KernelBuilder b("atom", 1);
    Reg counter = b.ldParam(0);
    Reg old_v = b.atom(AtomOp::Add, DT::U32, counter, 1);
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    b.st(MemSpace::Global, DT::U32,
         b.elemAddr(counter, b.add(DT::U32, tid, 1), 4), old_v);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(33 * 4);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{32, 1, 1}, {d});
    std::vector<uint32_t> r(33);
    gpu.memcpyToHost(r.data(), d, 33 * 4);
    EXPECT_EQ(r[0], 32u);  // final counter
    // Lane order: old values are 0..31 in lane order.
    for (uint32_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(r[lane + 1], lane);
}

TEST(Functional, AtomicCasAndExch)
{
    KernelBuilder b("cas", 1);
    Reg p = b.ldParam(0);
    // Only the lane whose tid matches the stored value swaps in 100+tid.
    Reg tid = b.mov(DT::U32, SpecialReg::TidX);
    (void)b.atomCas(DT::U32, p, tid, b.add(DT::U32, tid, 100));
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(4);
    const uint32_t init = 7;
    gpu.memcpyToDevice(d, &init, 4);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{32, 1, 1}, {d});
    uint32_t r = 0;
    gpu.memcpyToHost(&r, d, 4);
    EXPECT_EQ(r, 107u);  // lane 7 won the CAS
}

TEST(Functional, PartialLastWarpMasksLanes)
{
    // 40 threads: warp 1 has only 8 active lanes; the rest must not write.
    KernelBuilder b("partial", 1);
    Reg out = b.ldParam(0);
    Reg tid = b.globalTidX();
    b.st(MemSpace::Global, DT::U32, b.elemAddr(out, tid, 4), 1);
    Kernel k = b.build();

    sim::Gpu gpu;
    const uint64_t d = gpu.deviceMalloc(64 * 4);
    gpu.launch(k, sim::Dim3{1, 1, 1}, sim::Dim3{40, 1, 1}, {d});
    std::vector<uint32_t> r(64);
    gpu.memcpyToHost(r.data(), d, 64 * 4);
    for (uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(r[i], i < 40 ? 1u : 0u) << i;
}

/**
 * One thread of a straight-line kernel driven straight through a
 * WarpExecutor, outside any Gpu: the executor an SM owns.
 */
struct DirectWarp
{
    sim::LaunchContext launch;
    sim::CtaContext cta;
    sim::WarpContext warp;

    DirectWarp(const Kernel &kernel, std::vector<uint64_t> params)
    {
        launch.kernel = &kernel;
        launch.params = std::move(params);
        cta.active = true;
        cta.numWarps = 1;
        warp.active = true;
        warp.ctaSlot = 0;
        warp.initRegs(kernel.numRegs(), 32);
    }

    /** Issue every instruction with lane 0 active, as in one cycle. */
    void
    issueAll(sim::WarpExecutor &exec)
    {
        sim::StepInfo info;
        for (size_t pc = 0; pc < launch.kernel->size(); ++pc)
            exec.step(launch, cta, warp, pc, sim::LaneMask{1}, info);
    }
};

TEST(Functional, AtomicsFromTwoSmsApplyAtIssue)
{
    // Two SMs issue atom.add on one word in the same cycle, SM 0 first
    // (the order the Gpu ticks them). Each update lands at issue, and
    // each destination register gets the value before its own update.
    KernelBuilder b("issue_atom", 2);
    const Reg addr_reg = b.ldParam(0);
    const Reg add_reg = b.ldParam(1);
    const Reg old_v = b.atom(AtomOp::Add, DT::U32, addr_reg, add_reg);
    const Kernel k = b.build();

    sim::GlobalMemory gmem;
    const uint64_t addr = gmem.allocate(4);
    gmem.write(addr, 100, 4);
    sim::WarpExecutor sm0(gmem, 32), sm1(gmem, 32);
    DirectWarp thread0(k, {addr, 5}), thread1(k, {addr, 7});
    thread0.issueAll(sm0);
    EXPECT_EQ(gmem.read(addr, 4), 105u) << "SM 0's atomic not applied";
    thread1.issueAll(sm1);
    EXPECT_EQ(gmem.read(addr, 4), 112u) << "an update was lost";
    EXPECT_EQ(thread0.warp.reg(old_v.id, 0, 32), 100u);
    EXPECT_EQ(thread1.warp.reg(old_v.id, 0, 32), 105u);
}

} // namespace
