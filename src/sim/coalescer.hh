/**
 * @file
 * Memory-access coalescer.
 *
 * Sits in front of the L1 cache (Section VI): the active lanes' byte
 * addresses are folded into the minimal set of 128-byte line-sized
 * transactions. A fully coalesced warp load touches 1 line; a pathological
 * non-deterministic load touches up to 32.
 */

#ifndef GCL_SIM_COALESCER_HH
#define GCL_SIM_COALESCER_HH

#include <cstdint>
#include <vector>

#include "config.hh"
#include "trace/trace.hh"

namespace gcl::sim
{

/**
 * Coalesce per-lane accesses into line addresses.
 *
 * @param addrs (lane, byte address) pairs of the participating lanes
 * @param access_size bytes accessed per lane
 * @param line_bytes cache line size (power of two)
 * @return distinct line-aligned addresses in first-touch order
 */
std::vector<uint64_t>
coalesce(const std::vector<std::pair<unsigned, uint64_t>> &addrs,
         unsigned access_size, unsigned line_bytes);

/**
 * Traced variant: coalesce and emit one gcl::trace::Coalesce event
 * summarizing the fold (active lanes and produced lines packed into the
 * event's addr field). @p sink may be null or disabled — the event is
 * skipped and the result is identical to coalesce().
 */
std::vector<uint64_t>
coalesce(const std::vector<std::pair<unsigned, uint64_t>> &addrs,
         unsigned access_size, unsigned line_bytes, trace::TraceSink *sink,
         Cycle now, uint32_t pc, int sm_id, bool non_det);

} // namespace gcl::sim

#endif // GCL_SIM_COALESCER_HH
