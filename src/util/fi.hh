/**
 * @file
 * Deterministic fault injection (DESIGN.md section 13). Every fallible
 * operation in the persistence layer passes through a named `Site`;
 * an env-driven schedule decides which checks fail:
 *
 *     PGSS_FI="site=ckpt.write,mode=fail-nth:3"
 *     PGSS_FI="site=cache.read,mode=flip-rate:0.5,seed=7"
 *     PGSS_FI="site=*.write,mode=fail-rate:0.1,seed=1;site=ckpt.*,mode=fail-always"
 *
 * Grammar: schedules separated by ';'; each schedule is comma-
 * separated key=value pairs:
 *
 *  - site=<glob>   site name pattern ('*' matches any run of
 *                  characters); required.
 *  - mode=<m>      fail-nth:K   fail the site's Kth check (1-based)
 *                  fail-rate:P  fail each check with probability P
 *                  fail-always  fail every check
 *                  flip-nth:K / flip-rate:P  like the fail modes but
 *                  only trigger through corrupt() — they flip one bit
 *                  in a loaded buffer instead of failing an operation.
 *  - seed=N        seeds the schedule's private util::Rng (rate
 *                  modes); identical spec + identical check sequence
 *                  => identical injected faults.
 *
 * The first schedule whose glob matches a site owns that site. With no
 * schedule configured the whole framework is one predicated branch per
 * check (a relaxed atomic load of a process-global flag); sites are
 * namespace-scope statics so they register before main() and can be
 * exported through the obs stats registry (per-site check/trigger
 * counters appear under "fi." in run reports).
 *
 * counter() interns process-wide robustness counters (quarantines,
 * rebuilds, failed writes) that live below the obs layer — sim/analysis code
 * bumps them and obs registers them at startup ("robust." stats).
 */

#ifndef PGSS_UTIL_FI_HH
#define PGSS_UTIL_FI_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pgss::util::fi
{

/** Process-global "any schedule active" flag (read on every check). */
extern std::atomic<bool> g_active;

/** True when a PGSS_FI schedule is configured. */
inline bool
active()
{
    return g_active.load(std::memory_order_relaxed);
}

/**
 * One named fault-injection point. Declare at namespace scope (static
 * storage) so the site exists before obs registration:
 *
 *     namespace { util::fi::Site fi_write("ckpt.write"); }
 *     ...
 *     if (fi_write.shouldFail())
 *         return false;  // injected failure
 */
class Site
{
  public:
    /** @p name has static storage (a string literal or interned). */
    explicit Site(const char *name);

    /**
     * True when the configured schedule injects a failure at this
     * check. One predicated branch when no schedule is active.
     */
    bool
    shouldFail()
    {
        if (!active())
            return false;
        return evalSlow(false);
    }

    /**
     * Corruption check for *.read sites: when a flip-mode schedule
     * triggers, flips one deterministically chosen bit of @p buf.
     * @return true when the buffer was corrupted.
     */
    bool corrupt(std::vector<std::uint8_t> &buf);

    const char *name() const { return name_; }

    /** Checks evaluated while a schedule was active. */
    std::uint64_t checks() const
    {
        return checks_.load(std::memory_order_relaxed);
    }

    /** Faults injected (failures plus bit flips). */
    std::uint64_t triggers() const
    {
        return triggers_.load(std::memory_order_relaxed);
    }

  private:
    friend void reset();

    /** @p flip selects flip-mode schedules (corrupt()) vs fail. */
    bool evalSlow(bool flip);

    const char *name_;
    std::atomic<std::uint64_t> checks_{0};
    std::atomic<std::uint64_t> triggers_{0};

    /** Index+1 of the owning schedule, 0 = none; re-resolved when the
     * configuration generation moves. Guarded by the config mutex. */
    std::size_t schedule_ = 0;
    std::uint64_t resolved_gen_ = 0;
};

/**
 * Parse and install @p spec (the PGSS_FI grammar above). An empty spec
 * deactivates injection. @return false with @p *error set on a
 * malformed spec (the previous configuration stays in force).
 */
bool configure(const std::string &spec, std::string *error = nullptr);

/** configure() from the PGSS_FI environment variable (empty = off).
 * A malformed value warns and leaves injection off. */
void configureFromEnv();

/** Deactivate injection and zero every site/robustness counter
 * (tests). Sites stay registered. */
void reset();

/** Every registered site, in registration order. */
std::vector<Site *> sites();

/** The spec most recently installed by configure() ("" when off). */
std::string activeSpec();

/**
 * Intern the process-wide robustness counter @p name (e.g.
 * "ckpt.quarantined"). The reference is stable for the process
 * lifetime; bump with fetch_add(1, std::memory_order_relaxed).
 */
std::atomic<std::uint64_t> &counter(const std::string &name);

/** Snapshot of every interned robustness counter, sorted by name. */
std::vector<std::pair<std::string, std::uint64_t>> counters();

/** '*'-glob match (used for site patterns; exposed for tests). */
bool globMatch(const std::string &pattern, const char *name);

} // namespace pgss::util::fi

#endif // PGSS_UTIL_FI_HH
