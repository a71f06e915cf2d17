#include "count.hh"

#include "logging.hh"

namespace gcl
{

std::optional<uint64_t>
tryParseCount(std::string_view text, uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    uint64_t n = 0;
    for (const char c : text) {
        const auto digit = static_cast<uint64_t>(c - '0');
        if (digit > 9 || n > max / 10 || digit > max - n * 10)
            return std::nullopt;
        n = n * 10 + digit;
    }
    return n;
}

uint64_t
parseCount(const char *name, const char *text, const char *what,
           bool zero_ok, uint64_t max)
{
    const std::optional<uint64_t> n = tryParseCount(text, max);
    if (!n || (*n == 0 && !zero_ok))
        gcl_fatal(name, "=", text, " is not a ", what);
    return *n;
}

} // namespace gcl
