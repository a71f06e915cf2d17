#include "scheduler.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "util/count.hh"

namespace gcl::exec
{

unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

unsigned
resolveJobs(unsigned requested, const char *envvar, unsigned fallback)
{
    unsigned jobs = requested;
    bool chosen = requested != 0;
    if (!chosen && envvar != nullptr) {
        if (const char *env = std::getenv(envvar)) {
            jobs = static_cast<unsigned>(
                parseCount(envvar, env, "job count", true,
                           std::numeric_limits<unsigned>::max()));
            chosen = true;
        }
    }
    if (!chosen)
        return fallback == 0 ? hardwareThreads() : fallback;
    return jobs == 0 ? hardwareThreads() : jobs;
}

void
parallelFor(unsigned jobs, size_t count,
            const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (jobs <= 1 || count == 1) {
        // The inline path *is* the serial loop: same order, exceptions
        // stop later indices exactly as they would without gcl::exec.
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(count);
    auto work = [&] {
        for (size_t i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    {
        // jthread joins on destruction, also when starting a later
        // thread throws; the threads already started finish every index.
        const size_t n = std::min<size_t>(jobs, count);
        std::vector<std::jthread> threads;
        threads.reserve(n);
        for (size_t t = 0; t < n; ++t)
            threads.emplace_back(work);
    }
    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace gcl::exec
