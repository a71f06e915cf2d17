/**
 * @file
 * Functional (architectural) execution of one warp instruction.
 *
 * The executor updates register and memory state immediately at issue time
 * and reports to the timing model what kind of latency the instruction
 * incurs (StepInfo). See DESIGN.md decision 1: timing-directed functional
 * execution.
 *
 * End-of-cycle global write commit: when a staging buffer is attached
 * (setStaging), global-memory mutations — stores and atomics — are not
 * applied at issue but captured as PendingAccess records; the Gpu applies
 * them at the end of the cycle in SM-id order (commitStaged). Loads read
 * the pre-cycle memory image, so every SM sees the same memory within a
 * cycle. Atomics are staged as *operations* (op, operands, destination
 * register), not precomputed values: the read-modify-write runs at commit
 * against committed memory, so same-cycle atomics from different SMs
 * serialize in SM-id/lane order and never lose updates. Shared-memory and
 * register traffic stays immediate — it is SM-private. This rule is part
 * of the simulated behaviour behind every cached result; changing it is a
 * cache-schema decision (tests/test_functional.cc pins it).
 */

#ifndef GCL_SIM_FUNCTIONAL_HH
#define GCL_SIM_FUNCTIONAL_HH

#include <cstdint>
#include <vector>

#include "memory.hh"
#include "ptx/instruction.hh"
#include "warp.hh"

namespace gcl::sim
{

/** What the timing model needs to know about an executed instruction. */
struct StepInfo
{
    enum class Kind : uint8_t
    {
        Alu,      //!< SP-pipe op, fixed latency
        Sfu,      //!< SFU-pipe op
        Memory,   //!< LD/ST-pipe op with per-lane addresses
        Branch,   //!< SIMT stack already needs updating (taken mask below)
        Barrier,
        Exit,
        Nop,
    };

    Kind kind = Kind::Nop;

    // --- Memory ops ---
    ptx::MemSpace space = ptx::MemSpace::Global;
    bool isLoad = false;
    bool isStore = false;
    bool isAtomic = false;
    unsigned accessSize = 0;
    /** (lane, byte address) for every participating lane. */
    std::vector<std::pair<unsigned, uint64_t>> addrs;

    // --- Branches ---
    LaneMask takenMask = 0;
    size_t targetPc = 0;
};

/**
 * One deferred global-memory mutation, captured at issue and applied at
 * the end of the cycle (WarpExecutor::commitStaged). Stores carry their
 * value in @p a; atomics carry both operands plus the operation, and the
 * destination register slot that receives the old value at commit. The
 * register pointer stays valid: a warp's register vector is sized once at
 * CTA launch and the scoreboard blocks readers of the destination until
 * the op's writeback, long after commit.
 */
struct PendingAccess
{
    uint64_t addr = 0;
    uint64_t a = 0;              //!< store value / first atomic operand
    uint64_t b = 0;              //!< second atomic operand
    uint64_t *oldDst = nullptr;  //!< atomic old-value register, else null
    unsigned size = 0;
    bool isAtomic = false;
    ptx::AtomOp atomOp = ptx::AtomOp::Add;
    ptx::DataType type = ptx::DataType::U32;
};

/**
 * Stateless warp-level interpreter bound to a device's global memory.
 *
 * All lanes of the warp execute the instruction under @p active; guarded
 * instructions additionally evaluate their predicate per lane.
 */
class WarpExecutor
{
  public:
    explicit WarpExecutor(GlobalMemory &gmem, unsigned warp_size)
        : gmem_(gmem), warpSize_(warp_size)
    {}

    /**
     * Execute the instruction at @p pc for @p warp and describe it in
     * @p info.
     *
     * Register state (and memory, for stores/atomics/loads) is updated
     * in place. The SIMT stack is NOT touched; the caller applies
     * Branch/Exit/advance using @p info. Every field of @p info is
     * rewritten; passing the same StepInfo to each call reuses the
     * capacity of its address list, so a step never allocates.
     */
    void step(const LaunchContext &launch, CtaContext &cta,
              WarpContext &warp, size_t pc, LaneMask active,
              StepInfo &info);

    /** Value of a special register for the given lane. */
    uint64_t specialValue(const LaunchContext &launch, const CtaContext &cta,
                          const WarpContext &warp, unsigned lane,
                          ptx::SpecialReg sreg) const;

    /**
     * Defer global stores/atomics into @p staging instead of applying them
     * at issue (see file comment). Null restores immediate application.
     */
    void setStaging(std::vector<PendingAccess> *staging)
    {
        staging_ = staging;
    }

    /** Apply and clear @p staged, in staged (= lane/program) order. */
    void commitStaged(std::vector<PendingAccess> &staged);

  private:
    /** Lanes of @p active whose guard predicate passes. */
    LaneMask guardMask(const ptx::Instruction &inst, const WarpContext &warp,
                       LaneMask active) const;

    static uint64_t aluCompute(const ptx::Instruction &inst, uint64_t a,
                               uint64_t b, uint64_t c);
    static uint64_t convert(ptx::DataType to, ptx::DataType from,
                            uint64_t bits);
    static bool compare(ptx::CmpOp cmp, ptx::DataType type, uint64_t a,
                        uint64_t b);
    static uint64_t atomicApply(ptx::AtomOp op, ptx::DataType type,
                                uint64_t old_v, uint64_t a, uint64_t b);

    GlobalMemory &gmem_;
    unsigned warpSize_;
    std::vector<PendingAccess> *staging_ = nullptr;
};

} // namespace gcl::sim

#endif // GCL_SIM_FUNCTIONAL_HH
