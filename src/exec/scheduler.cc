#include "scheduler.hh"

#include <cstdlib>
#include <limits>

#include "util/count.hh"
#include "util/logging.hh"

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

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    gcl_assert(job != nullptr, "ThreadPool::submit of an empty job");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        gcl_assert(!shutdown_, "ThreadPool::submit after shutdown");
        queue_.push_back(std::move(job));
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // shutdown with a drained queue
            job = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        job();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --running_;
            if (queue_.empty() && running_ == 0)
                allIdle_.notify_all();
        }
    }
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

    const auto threads =
        static_cast<unsigned>(std::min<size_t>(jobs, count));
    std::vector<std::exception_ptr> errors(count);
    {
        ThreadPool pool(threads);
        for (size_t i = 0; i < count; ++i) {
            pool.submit([&fn, &errors, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace gcl::exec
