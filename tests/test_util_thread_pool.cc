/** @file Tests for parallelFor, behind the parallel bench harness. */

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.hh"
#include "util/thread_pool.hh"

using namespace pgss;

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{16}}) {
        const std::size_t n = 257;
        std::vector<std::atomic<int>> hits(n);
        util::parallelFor(n, jobs, [&hits](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " jobs " << jobs;
    }
}

TEST(ParallelFor, SingleJobRunsInOrderInline)
{
    // jobs <= 1 must run on the calling thread in index order — the
    // serial bench path depends on this.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    util::parallelFor(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
}

TEST(ParallelFor, MoreJobsThanItemsIsFine)
{
    std::vector<std::atomic<int>> hits(3);
    util::parallelFor(3, 64, [&hits](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroItemsIsANoOp)
{
    bool called = false;
    util::parallelFor(0, 8, [&called](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, BodyExceptionReachesCaller)
{
    // A throwing body must not end the program from a worker thread:
    // the threads join and the caller gets the exception, as on the
    // inline path.
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_THROW(util::parallelFor(64, jobs,
                                       [](std::size_t i) {
                                           if (i == 3)
                                               throw std::runtime_error(
                                                   "body 3");
                                       }),
                     std::runtime_error)
            << "jobs " << jobs;
    }
}

TEST(ParallelFor, IndexedSlotsGiveDeterministicResults)
{
    // The harness idiom: workers fill disjoint slots, the caller
    // reduces serially afterwards. Any jobs count must give the same
    // answer as jobs=1.
    const std::size_t n = 100;
    auto run = [n](std::size_t jobs) {
        std::vector<std::uint64_t> slot(n, 0);
        util::parallelFor(n, jobs, [&slot](std::size_t i) {
            slot[i] = i * i + 1;
        });
        std::uint64_t sum = 0;
        for (std::uint64_t v : slot)
            sum += v;
        return sum;
    };
    const std::uint64_t serial = run(1);
    EXPECT_EQ(run(4), serial);
    EXPECT_EQ(run(16), serial);
}

TEST(JobCount, DefaultsToSerial)
{
    // Without PGSS_JOBS the harness must stay serial; the test env
    // does not set it.
    if (std::getenv("PGSS_JOBS") == nullptr)
        EXPECT_EQ(util::jobCount(), 1u);
    else
        EXPECT_GE(util::jobCount(), 1u);
}
