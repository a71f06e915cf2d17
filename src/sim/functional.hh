/**
 * @file
 * Functional (architectural) execution of one warp instruction.
 *
 * The executor updates register and memory state immediately at issue time
 * and reports to the timing model what kind of latency the instruction
 * incurs (StepInfo). See DESIGN.md decision 1: timing-directed functional
 * execution.
 *
 * Global stores and atomics land at issue, lanes in lane order. The timed
 * SMs tick in id order, so a load sees every write issued before it, in
 * its own cycle too; the fast-forward follows the same rule.
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
};

} // namespace gcl::sim

#endif // GCL_SIM_FUNCTIONAL_HH
