#include "coalescer.hh"

#include <algorithm>

#include "util/bitutil.hh"
#include "guard/sim_error.hh"
#include "util/logging.hh"

namespace gcl::sim
{

std::vector<uint64_t>
coalesce(const std::vector<std::pair<unsigned, uint64_t>> &addrs,
         unsigned access_size, unsigned line_bytes)
{
    gcl_sim_check(isPowerOf2(line_bytes), "coalescer", 0,
                  "line size must be a power of two, got ", line_bytes);

    std::vector<uint64_t> lines;
    lines.reserve(4);
    for (const auto &[lane, addr] : addrs) {
        (void)lane;
        // An access may straddle a line when misaligned; IR accesses are
        // naturally aligned so first and last byte share a line.
        const uint64_t first = roundDown(addr, line_bytes);
        const uint64_t last = roundDown(addr + access_size - 1, line_bytes);
        for (uint64_t line = first; line <= last; line += line_bytes)
            if (std::find(lines.begin(), lines.end(), line) == lines.end())
                lines.push_back(line);
    }
    return lines;
}

std::vector<uint64_t>
coalesce(const std::vector<std::pair<unsigned, uint64_t>> &addrs,
         unsigned access_size, unsigned line_bytes, trace::TraceSink *sink,
         Cycle now, uint32_t pc, int sm_id, bool non_det)
{
    std::vector<uint64_t> lines = coalesce(addrs, access_size, line_bytes);
    GCL_TRACE(sink, trace::EventKind::Coalesce, now, 0,
              (uint64_t{addrs.size()} << 32) | lines.size(), pc,
              static_cast<int16_t>(sm_id),
              non_det ? trace::kFlagNonDet : 0);
    return lines;
}

} // namespace gcl::sim
