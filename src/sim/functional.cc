#include "functional.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "guard/sim_error.hh"
#include "util/logging.hh"

namespace gcl::sim
{

using ptx::CmpOp;
using ptx::DataType;
using ptx::Instruction;
using ptx::MemSpace;
using ptx::Opcode;
using ptx::Operand;
using ptx::SpecialReg;

namespace
{

float
bitsToF32(uint64_t bits)
{
    float f;
    const uint32_t b32 = static_cast<uint32_t>(bits);
    std::memcpy(&f, &b32, sizeof(f));
    return f;
}

uint64_t
f32ToBits(float f)
{
    uint32_t b32;
    std::memcpy(&b32, &f, sizeof(b32));
    return b32;
}

double
bitsToF64(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

uint64_t
f64ToBits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

/** Sign-extend the low 32 bits. */
uint64_t
sext32(uint64_t v)
{
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(v)));
}

uint64_t
zext32(uint64_t v)
{
    return v & 0xffffffffull;
}

/** @p v as a register of integer type @p t holds it. */
uint64_t
fitInt(DataType t, uint64_t v)
{
    switch (t) {
      case DataType::U32:
      case DataType::Pred:
        return zext32(v);
      case DataType::S32:
        return sext32(v);
      default:
        return v;
    }
}

/**
 * WarpExecutor::aluCompute's integer path for its commonest operations,
 * run over the lanes of @p exec with the operation and type dispatched
 * once per instruction instead of once per lane. It computes exactly
 * what aluCompute would. Returns false, writing nothing, for a float
 * type or any other operation.
 */
bool
integerLanes(const Instruction &inst, LaneMask exec, uint64_t *dst,
             const uint64_t *a, const uint64_t *b, const uint64_t *c)
{
    const DataType t = inst.type;
    if (ptx::isFloat(t))
        return false;
    const bool is32 = (t == DataType::U32 || t == DataType::S32 ||
                       t == DataType::Pred);
    const uint64_t shift_mask = is32 ? 31 : 63;
    auto run = [&](auto op) {
        for (LaneMask m = exec; m != 0; m &= m - 1) {
            const auto lane = static_cast<unsigned>(std::countr_zero(m));
            const uint64_t x = is32 ? zext32(a[lane]) : a[lane];
            const uint64_t y = is32 ? zext32(b[lane]) : b[lane];
            const uint64_t z = is32 ? zext32(c[lane]) : c[lane];
            dst[lane] = fitInt(t, op(x, y, z));
        }
        return true;
    };
    switch (inst.op) {
      case Opcode::Mov:
        return run([](uint64_t x, uint64_t, uint64_t) { return x; });
      case Opcode::Add:
        return run([](uint64_t x, uint64_t y, uint64_t) { return x + y; });
      case Opcode::Sub:
        return run([](uint64_t x, uint64_t y, uint64_t) { return x - y; });
      case Opcode::Mul:
        return run([](uint64_t x, uint64_t y, uint64_t) { return x * y; });
      case Opcode::Mad:
        return run(
            [](uint64_t x, uint64_t y, uint64_t z) { return x * y + z; });
      case Opcode::And:
        return run([](uint64_t x, uint64_t y, uint64_t) { return x & y; });
      case Opcode::Or:
        return run([](uint64_t x, uint64_t y, uint64_t) { return x | y; });
      case Opcode::Xor:
        return run([](uint64_t x, uint64_t y, uint64_t) { return x ^ y; });
      case Opcode::Shl:
        return run([shift_mask](uint64_t x, uint64_t y, uint64_t) {
            return x << (y & shift_mask);
        });
      default:
        return false;
    }
}

} // namespace

uint64_t
WarpExecutor::specialValue(const LaunchContext &launch, const CtaContext &cta,
                           const WarpContext &warp, unsigned lane,
                           SpecialReg sreg) const
{
    // Decompose the lane's linear in-CTA thread id into tid.{x,y,z}.
    const uint32_t linear = warp.threadBase + lane;
    const Dim3 &cdim = launch.cta;
    switch (sreg) {
      case SpecialReg::TidX: return linear % cdim.x;
      case SpecialReg::TidY: return (linear / cdim.x) % cdim.y;
      case SpecialReg::TidZ: return linear / (cdim.x * cdim.y);
      case SpecialReg::NTidX: return cdim.x;
      case SpecialReg::NTidY: return cdim.y;
      case SpecialReg::NTidZ: return cdim.z;
      case SpecialReg::CtaIdX: return cta.ctaX;
      case SpecialReg::CtaIdY: return cta.ctaY;
      case SpecialReg::CtaIdZ: return cta.ctaZ;
      case SpecialReg::NCtaIdX: return launch.grid.x;
      case SpecialReg::NCtaIdY: return launch.grid.y;
      case SpecialReg::NCtaIdZ: return launch.grid.z;
      case SpecialReg::LaneId: return lane;
      case SpecialReg::WarpId: return warp.warpInCta;
    }
    return 0;
}

LaneMask
WarpExecutor::guardMask(const Instruction &inst, const WarpContext &warp,
                        LaneMask active) const
{
    if (!inst.guarded)
        return active;
    LaneMask out = 0;
    const uint64_t *pred =
        &warp.regs[static_cast<size_t>(inst.predReg) * warpSize_];
    for (unsigned lane = 0; lane < warpSize_; ++lane) {
        if (!((active >> lane) & 1))
            continue;
        if ((pred[lane] != 0) != inst.predNeg)
            out |= LaneMask{1} << lane;
    }
    return out;
}

bool
WarpExecutor::compare(CmpOp cmp, DataType type, uint64_t a, uint64_t b)
{
    auto apply = [&cmp](auto x, auto y) {
        switch (cmp) {
          case CmpOp::Eq: return x == y;
          case CmpOp::Ne: return x != y;
          case CmpOp::Lt: return x < y;
          case CmpOp::Le: return x <= y;
          case CmpOp::Gt: return x > y;
          case CmpOp::Ge: return x >= y;
        }
        return false;
    };

    switch (type) {
      case DataType::U32:
      case DataType::Pred:
        return apply(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
      case DataType::S32:
        return apply(static_cast<int32_t>(a), static_cast<int32_t>(b));
      case DataType::U64:
        return apply(a, b);
      case DataType::S64:
        return apply(static_cast<int64_t>(a), static_cast<int64_t>(b));
      case DataType::F32:
        return apply(bitsToF32(a), bitsToF32(b));
      case DataType::F64:
        return apply(bitsToF64(a), bitsToF64(b));
    }
    return false;
}

uint64_t
WarpExecutor::convert(DataType to, DataType from, uint64_t bits)
{
    // Normalize the source into a signed/unsigned/double value first.
    double fval = 0.0;
    int64_t sval = 0;
    uint64_t uval = 0;
    bool is_float = false;
    switch (from) {
      case DataType::U32:
      case DataType::Pred:
        uval = zext32(bits);
        sval = static_cast<int64_t>(uval);
        break;
      case DataType::S32:
        sval = static_cast<int32_t>(bits);
        uval = static_cast<uint64_t>(sval);
        break;
      case DataType::U64:
        uval = bits;
        sval = static_cast<int64_t>(bits);
        break;
      case DataType::S64:
        sval = static_cast<int64_t>(bits);
        uval = bits;
        break;
      case DataType::F32:
        fval = bitsToF32(bits);
        is_float = true;
        break;
      case DataType::F64:
        fval = bitsToF64(bits);
        is_float = true;
        break;
    }
    if (!is_float)
        fval = ptx::isSigned(from) ? static_cast<double>(sval)
                                   : static_cast<double>(uval);

    switch (to) {
      case DataType::U32:
      case DataType::Pred:
        return is_float ? zext32(static_cast<uint64_t>(
                              static_cast<int64_t>(fval)))
                        : zext32(uval);
      case DataType::S32:
        return is_float ? sext32(static_cast<uint64_t>(
                              static_cast<int64_t>(fval)))
                        : sext32(static_cast<uint64_t>(sval));
      case DataType::U64:
        return is_float ? static_cast<uint64_t>(static_cast<int64_t>(fval))
                        : uval;
      case DataType::S64:
        return is_float ? static_cast<uint64_t>(static_cast<int64_t>(fval))
                        : static_cast<uint64_t>(sval);
      case DataType::F32:
        return f32ToBits(static_cast<float>(fval));
      case DataType::F64:
        return f64ToBits(fval);
    }
    return 0;
}

uint64_t
WarpExecutor::aluCompute(const Instruction &inst, uint64_t a, uint64_t b,
                         uint64_t c)
{
    const DataType t = inst.type;

    // Floating-point path.
    if (ptx::isFloat(t)) {
        const bool f32 = t == DataType::F32;
        const double x = f32 ? bitsToF32(a) : bitsToF64(a);
        const double y = f32 ? bitsToF32(b) : bitsToF64(b);
        const double z = f32 ? bitsToF32(c) : bitsToF64(c);
        double r = 0.0;
        switch (inst.op) {
          case Opcode::Mov: r = x; break;
          case Opcode::Add: r = x + y; break;
          case Opcode::Sub: r = x - y; break;
          case Opcode::Mul: r = x * y; break;
          case Opcode::Mad: r = x * y + z; break;
          case Opcode::Div: r = x / y; break;
          case Opcode::Min: r = std::fmin(x, y); break;
          case Opcode::Max: r = std::fmax(x, y); break;
          case Opcode::Abs: r = std::fabs(x); break;
          case Opcode::Neg: r = -x; break;
          case Opcode::Rcp: r = 1.0 / x; break;
          case Opcode::Sqrt: r = std::sqrt(x); break;
          case Opcode::Rsqrt: r = 1.0 / std::sqrt(x); break;
          case Opcode::Sin: r = std::sin(x); break;
          case Opcode::Cos: r = std::cos(x); break;
          case Opcode::Ex2: r = std::exp2(x); break;
          case Opcode::Lg2: r = std::log2(x); break;
          default:
            gcl_sim_error(SimError::Kind::Workload, "exec", 0, "op ",
                          ptx::toString(inst.op),
                          " unsupported for float types");
        }
        return f32 ? f32ToBits(static_cast<float>(r)) : f64ToBits(r);
    }

    // Integer path. Compute in 64 bits, then narrow per the type.
    const bool is32 = (t == DataType::U32 || t == DataType::S32 ||
                       t == DataType::Pred);
    const bool sgn = ptx::isSigned(t);
    const int64_t sa = is32 ? static_cast<int32_t>(a)
                            : static_cast<int64_t>(a);
    const int64_t sb = is32 ? static_cast<int32_t>(b)
                            : static_cast<int64_t>(b);
    const uint64_t ua = is32 ? zext32(a) : a;
    const uint64_t ub = is32 ? zext32(b) : b;
    const uint64_t uc = is32 ? zext32(c) : c;

    uint64_t r = 0;
    switch (inst.op) {
      case Opcode::Mov: r = ua; break;
      case Opcode::Add: r = ua + ub; break;
      case Opcode::Sub: r = ua - ub; break;
      case Opcode::Mul: r = ua * ub; break;
      case Opcode::Mad: r = ua * ub + uc; break;
      case Opcode::MulHi:
        if (is32) {
            r = sgn ? static_cast<uint64_t>((sa * sb) >> 32)
                    : ((ua * ub) >> 32);
        } else {
            const auto wide = sgn
                ? static_cast<unsigned __int128>(
                      static_cast<__int128>(sa) * sb)
                : static_cast<unsigned __int128>(ua) * ub;
            r = static_cast<uint64_t>(wide >> 64);
        }
        break;
      case Opcode::Div:
        if (sgn)
            r = sb == 0 ? 0 : static_cast<uint64_t>(sa / sb);
        else
            r = ub == 0 ? 0 : ua / ub;
        break;
      case Opcode::Rem:
        if (sgn)
            r = sb == 0 ? 0 : static_cast<uint64_t>(sa % sb);
        else
            r = ub == 0 ? 0 : ua % ub;
        break;
      case Opcode::Min:
        r = sgn ? static_cast<uint64_t>(std::min(sa, sb))
                : std::min(ua, ub);
        break;
      case Opcode::Max:
        r = sgn ? static_cast<uint64_t>(std::max(sa, sb))
                : std::max(ua, ub);
        break;
      case Opcode::Abs:
        r = sgn ? static_cast<uint64_t>(sa < 0 ? -sa : sa) : ua;
        break;
      case Opcode::Neg: r = static_cast<uint64_t>(-sa); break;
      case Opcode::And: r = ua & ub; break;
      case Opcode::Or: r = ua | ub; break;
      case Opcode::Xor: r = ua ^ ub; break;
      case Opcode::Not: r = ~ua; break;
      case Opcode::Shl: r = ua << (ub & (is32 ? 31 : 63)); break;
      case Opcode::Shr:
        if (sgn)
            r = static_cast<uint64_t>(sa >> (ub & (is32 ? 31 : 63)));
        else
            r = ua >> (ub & (is32 ? 31 : 63));
        break;
      default:
        gcl_sim_error(SimError::Kind::Workload, "exec", 0, "op ",
                      ptx::toString(inst.op),
                      " unsupported for integer types");
    }

    if (is32)
        r = sgn ? sext32(r) : zext32(r);
    return r;
}

uint64_t
WarpExecutor::atomicApply(ptx::AtomOp op, DataType type, uint64_t old_v,
                          uint64_t a, uint64_t b)
{
    const bool is32 = typeSize(type) == 4;
    switch (op) {
      case ptx::AtomOp::Add: {
        const uint64_t r = old_v + a;
        return is32 ? zext32(r) : r;
      }
      case ptx::AtomOp::Min:
        if (ptx::isSigned(type)) {
            const int64_t o = is32 ? static_cast<int32_t>(old_v)
                                   : static_cast<int64_t>(old_v);
            const int64_t x = is32 ? static_cast<int32_t>(a)
                                   : static_cast<int64_t>(a);
            return static_cast<uint64_t>(std::min(o, x)) &
                   (is32 ? 0xffffffffull : ~0ull);
        }
        return std::min(is32 ? zext32(old_v) : old_v,
                        is32 ? zext32(a) : a);
      case ptx::AtomOp::Max:
        if (ptx::isSigned(type)) {
            const int64_t o = is32 ? static_cast<int32_t>(old_v)
                                   : static_cast<int64_t>(old_v);
            const int64_t x = is32 ? static_cast<int32_t>(a)
                                   : static_cast<int64_t>(a);
            return static_cast<uint64_t>(std::max(o, x)) &
                   (is32 ? 0xffffffffull : ~0ull);
        }
        return std::max(is32 ? zext32(old_v) : old_v,
                        is32 ? zext32(a) : a);
      case ptx::AtomOp::Exch:
        return a;
      case ptx::AtomOp::Cas:
        return old_v == a ? b : old_v;
      case ptx::AtomOp::And:
        return old_v & a;
      case ptx::AtomOp::Or:
        return old_v | a;
    }
    return old_v;
}

void
WarpExecutor::step(const LaunchContext &launch, CtaContext &cta,
                   WarpContext &warp, size_t pc, LaneMask active,
                   StepInfo &info)
{
    const Instruction &inst = launch.kernel->inst(pc);
    info.kind = StepInfo::Kind::Nop;
    info.space = MemSpace::Global;
    info.isLoad = false;
    info.isStore = false;
    info.isAtomic = false;
    info.accessSize = 0;
    info.addrs.clear();
    info.takenMask = 0;
    info.targetPc = 0;
    const LaneMask exec = guardMask(inst, warp, active);

    // Visits the executing lanes in ascending order, one set bit at a time.
    auto for_each_lane = [exec](auto &&fn) {
        for (LaneMask m = exec; m != 0; m &= m - 1)
            fn(static_cast<unsigned>(std::countr_zero(m)));
    };

    /**
     * A source operand as one row of lane values, resolved once per
     * instruction so the lane loops below index instead of dispatching
     * on the operand kind per lane. A register is its row in the warp's
     * lane-major register file (stable: no reallocation can happen
     * mid-instruction, and aliasing with the destination register keeps
     * the exact read-then-write-per-lane order of a per-lane dispatch).
     * Immediates, warp-uniform specials (ntid.*, ctaid.*, nctaid.*,
     * warpid) and the per-lane tid.* / laneid fill a scratch row.
     */
    constexpr unsigned kLanes = sizeof(LaneMask) * 8;
    uint64_t scratch[3][kLanes];
    auto lanesOf = [&](unsigned k) -> const uint64_t * {
        const Operand &op = inst.srcs[k];
        uint64_t *row = scratch[k];
        switch (op.kind) {
          case Operand::Kind::Reg:
            return &warp.regs[static_cast<size_t>(op.reg) * warpSize_];
          case Operand::Kind::Imm:
            std::fill_n(row, kLanes, op.imm);
            return row;
          case Operand::Kind::Special:
            switch (op.sreg) {
              case SpecialReg::TidX:
              case SpecialReg::TidY:
              case SpecialReg::TidZ:
              case SpecialReg::LaneId:
                for_each_lane([&](unsigned lane) {
                    row[lane] = specialValue(launch, cta, warp, lane, op.sreg);
                });
                return row;
              default:
                std::fill_n(row, kLanes,
                            specialValue(launch, cta, warp, 0, op.sreg));
                return row;
            }
          case Operand::Kind::None:
            break;
        }
        static constexpr uint64_t kZeros[kLanes] = {};
        return kZeros;
    };
    uint64_t *const dst =
        inst.dst == ptx::kNoReg
            ? nullptr
            : &warp.regs[static_cast<size_t>(inst.dst) * warpSize_];

    switch (inst.op) {
      case Opcode::Nop:
        info.kind = StepInfo::Kind::Alu;
        return;

      case Opcode::Bar:
        info.kind = StepInfo::Kind::Barrier;
        return;

      case Opcode::Exit:
        info.kind = StepInfo::Kind::Exit;
        return;

      case Opcode::Bra:
        info.kind = StepInfo::Kind::Branch;
        info.takenMask = exec;
        info.targetPc = static_cast<size_t>(inst.branchTarget);
        return;

      case Opcode::LdParam:
        info.kind = StepInfo::Kind::Memory;
        info.space = MemSpace::Param;
        info.isLoad = true;
        info.accessSize = 8;
        if (exec != 0) {
            gcl_sim_check(inst.paramIndex < launch.params.size(), "exec",
                          0, "param index out of range at runtime");
            const uint64_t value = launch.params[inst.paramIndex];
            for_each_lane([&](unsigned lane) { dst[lane] = value; });
        }
        return;

      case Opcode::Ld: {
        info.kind = StepInfo::Kind::Memory;
        info.space = inst.space;
        info.isLoad = true;
        info.accessSize = inst.accessSize;
        const uint64_t *a = lanesOf(0);
        const auto offset = static_cast<uint64_t>(inst.memOffset);
        if (inst.space == MemSpace::Shared) {
            for_each_lane([&](unsigned lane) {
                const uint64_t addr = a[lane] + offset;
                info.addrs.emplace_back(lane, addr);
                gcl_sim_check(cta.shared, "exec", 0,
                              "shared load without shared memory");
                dst[lane] = cta.shared->read(addr, inst.accessSize);
            });
        } else {
            // Global, local, const and tex all live in the flat device
            // address space functionally.
            for_each_lane([&](unsigned lane) {
                const uint64_t addr = a[lane] + offset;
                info.addrs.emplace_back(lane, addr);
                dst[lane] = gmem_.read(addr, inst.accessSize);
            });
        }
        return;
      }

      case Opcode::St: {
        info.kind = StepInfo::Kind::Memory;
        info.space = inst.space;
        info.isStore = true;
        info.accessSize = inst.accessSize;
        const uint64_t *a = lanesOf(0);
        const uint64_t *v = lanesOf(1);
        const auto offset = static_cast<uint64_t>(inst.memOffset);
        for_each_lane([&](unsigned lane) {
            const uint64_t addr = a[lane] + offset;
            const uint64_t value = v[lane];
            info.addrs.emplace_back(lane, addr);
            if (inst.space == MemSpace::Shared) {
                gcl_sim_check(cta.shared, "exec", 0,
                              "shared store without shared memory");
                cta.shared->write(addr, value, inst.accessSize);
            } else {
                gmem_.write(addr, value, inst.accessSize);
            }
        });
        return;
      }

      case Opcode::Atom: {
        info.kind = StepInfo::Kind::Memory;
        info.space = MemSpace::Global;
        info.isAtomic = true;
        info.accessSize = inst.accessSize;
        // Lanes apply in lane order, which serializes intra-warp conflicts
        // deterministically.
        const uint64_t *s0 = lanesOf(0);
        const uint64_t *s1 = lanesOf(1);
        const uint64_t *s2 = lanesOf(2);
        const auto offset = static_cast<uint64_t>(inst.memOffset);
        for_each_lane([&](unsigned lane) {
            const uint64_t addr = s0[lane] + offset;
            const uint64_t a = s1[lane];
            const uint64_t b = s2[lane];
            info.addrs.emplace_back(lane, addr);
            const uint64_t old_v = gmem_.read(addr, inst.accessSize);
            gmem_.write(addr,
                        atomicApply(inst.atomOp, inst.type, old_v, a, b),
                        inst.accessSize);
            dst[lane] = old_v;
        });
        return;
      }

      case Opcode::Setp: {
        info.kind = StepInfo::Kind::Alu;
        const uint64_t *a = lanesOf(0);
        const uint64_t *b = lanesOf(1);
        for_each_lane([&](unsigned lane) {
            dst[lane] = compare(inst.cmp, inst.type, a[lane], b[lane]) ? 1 : 0;
        });
        return;
      }

      case Opcode::Selp: {
        info.kind = StepInfo::Kind::Alu;
        const uint64_t *a = lanesOf(0);
        const uint64_t *b = lanesOf(1);
        const uint64_t *p = lanesOf(2);
        for_each_lane([&](unsigned lane) {
            dst[lane] = p[lane] ? a[lane] : b[lane];
        });
        return;
      }

      case Opcode::Cvt: {
        info.kind = StepInfo::Kind::Alu;
        const uint64_t *a = lanesOf(0);
        if (!ptx::isFloat(inst.type) && !ptx::isFloat(inst.cvtFrom)) {
            // Integer to integer, as convert() computes it: read the
            // source at its width and signedness, then fit the result.
            for_each_lane([&](unsigned lane) {
                dst[lane] = fitInt(inst.type, fitInt(inst.cvtFrom, a[lane]));
            });
            return;
        }
        for_each_lane([&](unsigned lane) {
            dst[lane] = convert(inst.type, inst.cvtFrom, a[lane]);
        });
        return;
      }

      default: {
        // Generic ALU / SFU arithmetic.
        info.kind = inst.isSfu() ? StepInfo::Kind::Sfu : StepInfo::Kind::Alu;
        const uint64_t *a = lanesOf(0);
        const uint64_t *b = lanesOf(1);
        const uint64_t *c = lanesOf(2);
        if (integerLanes(inst, exec, dst, a, b, c))
            return;
        for_each_lane([&](unsigned lane) {
            dst[lane] = aluCompute(inst, a[lane], b[lane], c[lane]);
        });
        return;
      }
    }
}

} // namespace gcl::sim
