/**
 * @file
 * Host-side parallelism for the bench harness, which simulates
 * independent workloads concurrently (bench::runSuite,
 * PGSS_JOBS). Deliberately minimal — no futures, no work stealing:
 * parallelFor() starts its threads, spreads the indices over them and
 * joins them. Determinism is the caller's job; the idiom is to
 * compute into pre-sized, index-addressed slots and emit serially
 * afterwards so output is identical to a serial run.
 *
 * One job runs inline on the calling thread in index order, which is
 * the PGSS_JOBS=1 default; parallelism is opt-in.
 */

#ifndef PGSS_UTIL_THREAD_POOL_HH
#define PGSS_UTIL_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <string>

namespace pgss::util
{

/**
 * Name the calling thread for diagnostics (span profiler tracks,
 * log prefixes). parallelFor() names its threads "pool-<i>"; the
 * initial thread defaults to "main". Names are thread-local and
 * carry no synchronization cost for readers on the same thread.
 */
void setCurrentThreadName(const std::string &name);

/** The calling thread's name ("main" when never set). */
const std::string &currentThreadName();

/**
 * Run @p body(i) for every i in [0, n), spread over @p jobs threads
 * (at most n) that are joined before it returns. jobs <= 1 runs
 * inline on the calling thread, in order, with no thread at all.
 * @p body must be safe to call concurrently for distinct i when
 * jobs > 1. If a body throws, no further index starts, and the first
 * exception is rethrown to the caller once every thread has joined.
 */
void parallelFor(std::size_t n, std::size_t jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace pgss::util

#endif // PGSS_UTIL_THREAD_POOL_HH
