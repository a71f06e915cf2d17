/**
 * @file
 * Per-warp and per-CTA execution contexts, and the per-launch context
 * shared by all SMs.
 */

#ifndef GCL_SIM_WARP_HH
#define GCL_SIM_WARP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "config.hh"
#include "memory.hh"
#include "ptx/cfg.hh"
#include "ptx/kernel.hh"
#include "simt_stack.hh"

namespace gcl::sim
{

/** CUDA-style 3-component dimension. */
struct Dim3
{
    uint32_t x = 1;
    uint32_t y = 1;
    uint32_t z = 1;

    uint64_t count() const { return uint64_t{x} * y * z; }
};

/**
 * Everything fixed for the duration of one kernel launch: the kernel, its
 * CFG (for reconvergence pcs), launch geometry, parameters, and the static
 * load classification used for stat attribution.
 */
struct LaunchContext
{
    const ptx::Kernel *kernel = nullptr;
    std::unique_ptr<ptx::Cfg> cfg;
    Dim3 grid;
    Dim3 cta;
    std::vector<uint64_t> params;

    /**
     * Per-pc load class, the classifier's verdict: 0 = not a global
     * load, 1 = deterministic, 2 = non-deterministic. Tags each global
     * load op and joins crit's stall attribution.
     */
    std::vector<uint8_t> pcLoadClass;

    /**
     * Per-pc scoreboard dependence masks, flattened [pc * sbWords + w]:
     * the union of every register the instruction at pc reads or writes
     * (sources, guard predicate, destination), in scoreboard bit layout.
     * Lets the issue check reduce to `scoreboard[w] & sbMask[pc][w]`
     * instead of testing operands one register at a time. Built once per
     * launch by Gpu::launch; empty when the kernel has no instructions.
     */
    std::vector<uint64_t> sbMask;
    unsigned sbWords = 0;         //!< scoreboard words per pc

    /** Which pipeline an instruction issues to (warpReady dispatch). */
    enum IssueClass : uint8_t
    {
        IssueSp = 0,
        IssueSfu,
        IssueMemory,
        IssueBarrier,
        IssueExit,
    };

    /**
     * Per-pc issue class, built alongside sbMask: the per-cycle scheduler
     * scan only needs "which unit must be free", and reading one byte
     * from a dense array beats pulling the whole ~130-byte Instruction
     * into cache for every candidate warp every cycle.
     */
    std::vector<uint8_t> issueClass;

    /**
     * Per-pc execution timing, resolved from the machine description's
     * opcode-class table (GpuConfig::opTiming via opClassFor) once per
     * launch: the issue path reads two u16s instead of classifying the
     * opcode every cycle. Meaningful for SP/SFU instructions; memory and
     * control pcs carry their class's values but the LD/ST path never
     * reads them.
     */
    std::vector<uint16_t> opLatency;
    std::vector<uint16_t> opInitiation;

    /** Warps needed per CTA. */
    unsigned
    warpsPerCta(unsigned warp_size) const
    {
        return static_cast<unsigned>((cta.count() + warp_size - 1) /
                                     warp_size);
    }
};

/** One CTA resident on an SM. */
struct CtaContext
{
    bool active = false;
    uint32_t ctaX = 0, ctaY = 0, ctaZ = 0;
    uint32_t linearId = 0;
    unsigned numWarps = 0;
    unsigned warpsDone = 0;
    unsigned warpsAtBarrier = 0;
    std::unique_ptr<SharedMemory> shared;
};

/** One warp resident on an SM. */
struct WarpContext
{
    bool active = false;          //!< slot holds a live warp
    int ctaSlot = -1;
    unsigned warpInCta = 0;
    uint32_t threadBase = 0;      //!< linear in-CTA thread id of lane 0

    SimtStack stack;
    std::vector<uint64_t> regs;   //!< numRegs x warpSize, lane-major

    bool atBarrier = false;
    unsigned inflightOps = 0;     //!< issued but not written back

    /** Scoreboard: bit r set = register r has a pending writeback. */
    std::vector<uint64_t> scoreboard;

    /**
     * pc of the instruction that set each scoreboard bit, so a data
     * hazard can be charged to its producer (crit profiler only; empty
     * when crit is off — the issue path never reads it then).
     */
    std::vector<uint32_t> sbProducer;

    uint64_t &
    reg(ptx::RegId r, unsigned lane, unsigned warp_size)
    {
        return regs[static_cast<size_t>(r) * warp_size + lane];
    }

    uint64_t
    reg(ptx::RegId r, unsigned lane, unsigned warp_size) const
    {
        return regs[static_cast<size_t>(r) * warp_size + lane];
    }

    void
    initRegs(unsigned num_regs, unsigned warp_size)
    {
        regs.assign(static_cast<size_t>(num_regs) * warp_size, 0);
        scoreboard.assign((num_regs + 63) / 64, 0);
    }

    bool
    scoreboarded(ptx::RegId r) const
    {
        return (scoreboard[r / 64] >> (r % 64)) & 1;
    }

    void
    setScoreboard(ptx::RegId r)
    {
        scoreboard[r / 64] |= uint64_t{1} << (r % 64);
    }

    void
    clearScoreboard(ptx::RegId r)
    {
        scoreboard[r / 64] &= ~(uint64_t{1} << (r % 64));
    }
};

} // namespace gcl::sim

#endif // GCL_SIM_WARP_HH
