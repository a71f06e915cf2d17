/**
 * @file
 * The one parser of counts: given on the command line or in the
 * environment (job counts, cycle counts, repetitions, ...), or as a
 * numeric field of a config value, machine file, fault plan or sample
 * spec.
 */

#ifndef GCL_UTIL_COUNT_HH
#define GCL_UTIL_COUNT_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace gcl
{

/**
 * @p text as a count: decimal digits only, with no sign, no trailing
 * text and nothing above @p max. Anything else, the empty string
 * included, is nullopt; each caller reports it in its own terms.
 */
std::optional<uint64_t>
tryParseCount(std::string_view text,
              uint64_t max = std::numeric_limits<uint64_t>::max());

/**
 * The value @p text of the input @p name (a flag or an environment
 * variable) as a count (tryParseCount). Anything else, or 0 unless
 * @p zero_ok, exits 1 with "<name>=<text> is not a <what>".
 */
uint64_t parseCount(const char *name, const char *text, const char *what,
                    bool zero_ok,
                    uint64_t max = std::numeric_limits<uint64_t>::max());

} // namespace gcl

#endif // GCL_UTIL_COUNT_HH
