#include "simt_stack.hh"

#include "guard/sim_error.hh"
#include "util/logging.hh"

namespace gcl::sim
{

void
SimtStack::reset(LaneMask initial_mask, size_t end_pc)
{
    stack_.clear();
    if (initial_mask)
        stack_.push_back({initial_mask, 0, end_pc});
}

size_t
SimtStack::pc() const
{
    gcl_sim_check(!stack_.empty(), "simt", 0, "pc() on a finished warp");
    return stack_.back().pc;
}

LaneMask
SimtStack::activeMask() const
{
    gcl_sim_check(!stack_.empty(), "simt", 0,
                  "activeMask() on a finished warp");
    return stack_.back().mask;
}

void
SimtStack::reconverge()
{
    while (!stack_.empty() &&
           (stack_.back().mask == 0 || stack_.back().pc == stack_.back().rpc))
        stack_.pop_back();
}

void
SimtStack::advance()
{
    gcl_sim_check(!stack_.empty(), "simt", 0,
                  "advance() on a finished warp");
    ++stack_.back().pc;
    reconverge();
}

void
SimtStack::branch(LaneMask taken_mask, size_t target_pc, size_t reconv_pc)
{
    gcl_sim_check(!stack_.empty(), "simt", 0,
                  "branch() on a finished warp");
    Entry &top = stack_.back();
    gcl_sim_check((taken_mask & ~top.mask) == 0, "simt", 0,
                  "taken mask contains inactive lanes");

    const LaneMask not_taken = top.mask & ~taken_mask;

    if (not_taken == 0) {
        // Uniformly taken.
        top.pc = target_pc;
        reconverge();
        return;
    }
    if (taken_mask == 0) {
        // Uniformly not taken.
        ++top.pc;
        reconverge();
        return;
    }

    // Divergence: the current entry becomes the reconvergence entry and the
    // two sides execute serially, not-taken first (pushed below taken).
    const size_t fallthrough_pc = top.pc + 1;
    top.pc = reconv_pc;
    stack_.push_back({not_taken, fallthrough_pc, reconv_pc});
    stack_.push_back({taken_mask, target_pc, reconv_pc});
    reconverge();
}

void
SimtStack::exitLanes(LaneMask exiting)
{
    gcl_sim_check(!stack_.empty(), "simt", 0,
                  "exitLanes() on a finished warp");
    gcl_sim_check((exiting & ~stack_.back().mask) == 0, "simt", 0,
                  "exiting lanes are not active");
    for (auto &entry : stack_)
        entry.mask &= ~exiting;

    // The top entry executed the exit; if any of its lanes survive
    // (predication off in our IR: they never do) they fall through.
    if (!stack_.empty() && stack_.back().mask != 0)
        ++stack_.back().pc;
    reconverge();

    // Entries in the middle of the stack may have become empty; they pop
    // when they reach the top via reconverge().
}

} // namespace gcl::sim
