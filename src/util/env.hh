/**
 * @file
 * Environment-variable configuration knobs shared by benches and
 * examples: PGSS_SCALE shrinks/grows the synthetic workloads,
 * PGSS_JOBS sets the bench harness's worker-thread count, and
 * PGSS_PROFILE_CACHE points the ground-truth profile cache somewhere
 * other than the default. Other subsystems read their own knobs
 * through envString()/envDouble(): PGSS_LOG_LEVEL (util/logging),
 * PGSS_STATS_JSON and PGSS_PROFILE_OUT (obs/report). parseDouble()
 * is the one number parser for env knobs and command-line numbers.
 */

#ifndef PGSS_UTIL_ENV_HH
#define PGSS_UTIL_ENV_HH

#include <cstddef>
#include <optional>
#include <string>

namespace pgss::util
{

/** String env var with default. */
std::string envString(const char *name, const std::string &def);

/**
 * All of @p text as one finite double; nullopt when it is empty,
 * has anything after the number, or reads as nan or inf.
 */
std::optional<double> parseDouble(const char *text);

/**
 * Double env var with default; values parseDouble() rejects fall
 * back to @p def.
 */
double envDouble(const char *name, double def);

/**
 * Global workload scale factor from PGSS_SCALE (default 1.0). Multiplies
 * the dynamic length of every suite workload; clamped to [0.01, 100].
 */
double workloadScale();

/**
 * Directory for cached ground-truth interval profiles, from
 * PGSS_PROFILE_CACHE (default: "<cwd>/pgss_profile_cache").
 */
std::string profileCacheDir();

/**
 * Worker threads for the bench harness, from PGSS_JOBS. Default 1
 * (serial — parallelism is opt-in so runs stay deterministic by
 * construction); 0 means one per hardware thread. Clamped to
 * [1, 256].
 */
std::size_t jobCount();

} // namespace pgss::util

#endif // PGSS_UTIL_ENV_HH
