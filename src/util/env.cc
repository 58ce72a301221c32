#include "util/env.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>

namespace pgss::util
{

std::string
envString(const char *name, const std::string &def)
{
    const char *v = std::getenv(name);
    return v && *v ? std::string(v) : def;
}

std::optional<double>
parseDouble(const char *text)
{
    char *end = nullptr;
    const double parsed = std::strtod(text, &end);
    // strtod also accepts "nan" and "inf"; no knob or argument has a
    // use for them, and NaN slips through range checks.
    if (end == text || *end != '\0' || !std::isfinite(parsed))
        return std::nullopt;
    return parsed;
}

double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    return v ? parseDouble(v).value_or(def) : def;
}

double
workloadScale()
{
    double s = envDouble("PGSS_SCALE", 1.0);
    return std::clamp(s, 0.01, 100.0);
}

std::string
profileCacheDir()
{
    return envString("PGSS_PROFILE_CACHE", "pgss_profile_cache");
}

std::size_t
jobCount()
{
    const double v = envDouble("PGSS_JOBS", 1.0);
    if (v == 0.0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? std::min<std::size_t>(hw, 256) : 1;
    }
    if (v < 1.0)
        return 1;
    return static_cast<std::size_t>(std::min(v, 256.0));
}

} // namespace pgss::util
