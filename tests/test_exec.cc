/**
 * @file
 * Tests for the gcl::exec job scheduler: slot ordering, the N=1 inline
 * guarantee, exception capture/propagation, and the job-count policy.
 * These are also the tests scripts/check.sh runs under ThreadSanitizer
 * (`--tsan`).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/scheduler.hh"

namespace
{

using gcl::exec::hardwareThreads;
using gcl::exec::parallelFor;
using gcl::exec::resolveJobs;

TEST(Exec, HardwareThreadsIsPositive)
{
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(Exec, ResolveJobsPrecedence)
{
    unsetenv("GCL_TEST_JOBS");
    EXPECT_EQ(resolveJobs(5, "GCL_TEST_JOBS"), 5u);     // explicit wins
    EXPECT_EQ(resolveJobs(0, "GCL_TEST_JOBS"), 1u);     // fallback
    EXPECT_EQ(resolveJobs(0, "GCL_TEST_JOBS", 7), 7u);  // custom fallback

    setenv("GCL_TEST_JOBS", "3", 1);
    EXPECT_EQ(resolveJobs(0, "GCL_TEST_JOBS"), 3u);     // env fills in
    EXPECT_EQ(resolveJobs(5, "GCL_TEST_JOBS"), 5u);     // explicit beats env

    setenv("GCL_TEST_JOBS", "0", 1);
    EXPECT_EQ(resolveJobs(0, "GCL_TEST_JOBS"), hardwareThreads());
    unsetenv("GCL_TEST_JOBS");

    // fallback 0 = one job per hardware thread
    EXPECT_EQ(resolveJobs(0, nullptr, 0), hardwareThreads());
}

TEST(ExecDeathTest, MalformedJobsEnvIsFatal)
{
    // resolveJobs only reads the count; it starts no thread. A sign or
    // trailing text must exit 1 naming the variable, not run as 2^32 - 2
    // or as 2 jobs. The variable is set in the death test's child only.
    for (const char *value : {"-2", "2x"})
        EXPECT_EXIT(
            {
                setenv("GCL_BENCH_JOBS", value, 1);
                resolveJobs(0, "GCL_BENCH_JOBS");
            },
            ::testing::ExitedWithCode(1),
            std::string("fatal: GCL_BENCH_JOBS=") + value +
                " is not a job count")
            << value;
}

TEST(Exec, InlineWhenSingleJobPreservesOrder)
{
    std::vector<size_t> order;
    parallelFor(1, 6, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Exec, InlineExceptionStopsLaterIndices)
{
    // jobs=1 must behave exactly like the plain serial loop: the throw at
    // index 2 propagates immediately and indices 3+ never run.
    std::vector<size_t> ran;
    EXPECT_THROW(parallelFor(1, 6,
                             [&](size_t i) {
                                 if (i == 2)
                                     throw std::runtime_error("job 2");
                                 ran.push_back(i);
                             }),
                 std::runtime_error);
    EXPECT_EQ(ran, (std::vector<size_t>{0, 1}));
}

TEST(Exec, ParallelFillsEverySlot)
{
    constexpr size_t kCount = 100;
    std::vector<size_t> squares(kCount);
    parallelFor(4, kCount, [&](size_t i) { squares[i] = i * i; });
    ASSERT_EQ(squares.size(), kCount);
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(squares[i], i * i) << "slot " << i;
}

TEST(Exec, ParallelResultsIndependentOfJobCount)
{
    auto fill = [](unsigned jobs) {
        std::vector<int> out(31);
        parallelFor(jobs, out.size(), [&](size_t i) {
            out[i] = static_cast<int>(3 * i + 1);
        });
        return out;
    };
    const auto serial = fill(1);
    for (unsigned jobs : {2u, 3u, 8u, 64u})
        EXPECT_EQ(fill(jobs), serial) << "jobs=" << jobs;
}

TEST(Exec, LowestIndexExceptionWins)
{
    // Several jobs throw; regardless of which thread finishes first, the
    // rethrown exception is the lowest-index one, so failures are
    // reported deterministically.
    for (int repeat = 0; repeat < 10; ++repeat) {
        try {
            parallelFor(4, 16, [](size_t i) {
                if (i == 3 || i == 7 || i == 12)
                    throw std::runtime_error("job " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
    }
}

TEST(Exec, AllJobsRunDespiteExceptions)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(4, 20,
                             [&](size_t i) {
                                 ran.fetch_add(1);
                                 if (i == 0)
                                     throw std::runtime_error("job 0");
                             }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 20);
}

TEST(Exec, MoreJobsThanWorkIsFine)
{
    std::atomic<int> sum{0};
    parallelFor(16, 3, [&](size_t i) {
        sum.fetch_add(static_cast<int>(i) + 1);
    });
    EXPECT_EQ(sum.load(), 6);
}

TEST(Exec, ZeroCountIsANoop)
{
    parallelFor(4, 0, [](size_t) { FAIL() << "must not run"; });
}

TEST(Exec, ResultSlotsSeeNoTornWrites)
{
    // Each job writes a multi-word value into its own slot; once
    // parallelFor returns the main thread must observe every write fully
    // (the scheduler's happens-before contract).
    struct Wide
    {
        uint64_t a = 0, b = 0, c = 0;
    };
    std::vector<Wide> out(200);
    parallelFor(8, out.size(), [&](size_t i) {
        out[i].a = i;
        out[i].b = i * 2;
        out[i].c = i * 3;
    });
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].a, i);
        EXPECT_EQ(out[i].b, i * 2);
        EXPECT_EQ(out[i].c, i * 3);
    }
}

} // namespace
