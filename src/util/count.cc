#include "count.hh"

#include "logging.hh"

namespace gcl
{

uint64_t
parseCount(const char *name, const char *text, const char *what,
           bool zero_ok, uint64_t max)
{
    uint64_t n = 0;
    bool ok = *text != '\0';
    for (const char *c = text; ok && *c != '\0'; ++c) {
        const auto digit = static_cast<uint64_t>(*c - '0');
        ok = digit <= 9 && n <= (max - digit) / 10;
        n = n * 10 + digit;
    }
    if (!ok || (n == 0 && !zero_ok))
        gcl_fatal(name, "=", text, " is not a ", what);
    return n;
}

} // namespace gcl
