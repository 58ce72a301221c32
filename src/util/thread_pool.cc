#include "util/thread_pool.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pgss::util
{

namespace
{

thread_local std::string t_thread_name = "main";

} // anonymous namespace

void
setCurrentThreadName(const std::string &name)
{
    t_thread_name = name;
}

const std::string &
currentThreadName()
{
    return t_thread_name;
}

void
parallelFor(std::size_t n, std::size_t jobs,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs > n)
        jobs = n;
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // One shared index rather than static chunks: items have wildly
    // uneven cost (workload lengths differ by orders of magnitude),
    // so dynamic dispatch keeps all threads busy until the tail.
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure; ///< first exception a body threw
    {
        // jthreads join when the vector goes, also when starting one
        // of them throws.
        std::vector<std::jthread> threads;
        threads.reserve(jobs);
        for (std::size_t w = 0; w < jobs; ++w)
            threads.emplace_back([&, w] {
                setCurrentThreadName("pool-" + std::to_string(w));
                try {
                    while (true) {
                        const std::size_t i =
                            next.fetch_add(1, std::memory_order_relaxed);
                        if (i >= n)
                            return;
                        body(i);
                    }
                } catch (...) {
                    // Start no further index; the caller rethrows,
                    // as it would have on the inline path.
                    next.store(n, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(failure_mutex);
                    if (!failure)
                        failure = std::current_exception();
                }
            });
    }
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace pgss::util
