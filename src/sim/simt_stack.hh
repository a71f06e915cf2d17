/**
 * @file
 * SIMT reconvergence stack with immediate-postdominator reconvergence,
 * the scheme used by GPGPU-Sim and described in Section III of the paper.
 */

#ifndef GCL_SIM_SIMT_STACK_HH
#define GCL_SIM_SIMT_STACK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcl::sim
{

/** Lane mask; bit i = lane i active. Warp width is at most 32. */
using LaneMask = uint32_t;

/**
 * Per-warp SIMT stack.
 *
 * The stack's top entry supplies the warp's current pc and active mask.
 * Divergent branches push taken/not-taken entries whose reconvergence pc is
 * the branch's immediate postdominator; when the top entry's pc reaches its
 * reconvergence pc the entry pops and the masks merge.
 */
class SimtStack
{
  public:
    /**
     * Reset for a new warp.
     * @param initial_mask lanes holding live threads
     * @param end_pc one-past-the-last pc, the root reconvergence sentinel
     */
    void reset(LaneMask initial_mask, size_t end_pc);

    bool done() const { return stack_.empty(); }

    size_t pc() const;
    LaneMask activeMask() const;

    /** Advance past a non-branch instruction at the current pc. */
    void advance();

    /**
     * Resolve a (possibly divergent) branch.
     * @param taken_mask lanes (subset of activeMask()) taking the branch
     * @param target_pc branch destination
     * @param reconv_pc the branch's ipdom reconvergence pc
     */
    void branch(LaneMask taken_mask, size_t target_pc, size_t reconv_pc);

    /** Retire lanes that executed exit; pops emptied entries. */
    void exitLanes(LaneMask exiting);

    size_t depth() const { return stack_.size(); }

  private:
    struct Entry
    {
        LaneMask mask;
        size_t pc;
        size_t rpc;  //!< reconvergence pc
    };

    /** Pop entries whose pc reached their reconvergence point. */
    void reconverge();

    std::vector<Entry> stack_;
};

} // namespace gcl::sim

#endif // GCL_SIM_SIMT_STACK_HH
