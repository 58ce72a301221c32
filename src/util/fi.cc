#include "util/fi.hh"

#include <charconv>
#include <map>
#include <mutex>

#include "util/env.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace pgss::util::fi
{

std::atomic<bool> g_active{false};

namespace
{

enum class Mode : std::uint8_t
{
    FailNth,
    FailRate,
    FailAlways,
    FlipNth,
    FlipRate,
};

struct Schedule
{
    std::string site_glob;
    Mode mode = Mode::FailAlways;
    std::uint64_t nth = 0; ///< 1-based check index (nth modes)
    double rate = 0.0;     ///< trigger probability (rate modes)
    std::uint64_t seed = 0x5eed;
    Rng rng{0x5eed}; ///< private stream; deterministic per spec

    bool
    isFlip() const
    {
        return mode == Mode::FlipNth || mode == Mode::FlipRate;
    }
};

struct Config
{
    std::vector<Schedule> schedules;
    std::string spec;
    std::uint64_t generation = 1; ///< bumped per configure()/reset()
};

/** Guards the config, the site list, and every slow-path eval. */
std::mutex &
mtx()
{
    static std::mutex m;
    return m;
}

Config &
config()
{
    static Config c;
    return c;
}

std::vector<Site *> &
siteList()
{
    static std::vector<Site *> s;
    return s;
}

/** node-based so references stay stable across interning */
std::map<std::string, std::atomic<std::uint64_t>> &
counterMap()
{
    static std::map<std::string, std::atomic<std::uint64_t>> m;
    return m;
}

/**
 * Parse all of @p text as one number: an unsigned type takes decimal
 * digits only, and nothing may follow the number.
 */
template <class T>
bool
parseWhole(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

bool
parseMode(const std::string &value, Schedule &s, std::string *error)
{
    if (value == "fail-always") {
        s.mode = Mode::FailAlways;
        return true;
    }
    if (value.rfind("fail-nth:", 0) == 0 ||
        value.rfind("flip-nth:", 0) == 0) {
        s.mode = value[1] == 'a' ? Mode::FailNth : Mode::FlipNth;
        if (!parseWhole(value.substr(9), s.nth) || s.nth == 0) {
            if (error)
                *error = "nth must be a decimal integer >= 1 in '" +
                         value + "'";
            return false;
        }
        return true;
    }
    if (value.rfind("fail-rate:", 0) == 0 ||
        value.rfind("flip-rate:", 0) == 0) {
        s.mode = value[1] == 'a' ? Mode::FailRate : Mode::FlipRate;
        // Written so that NaN, which compares false, fails it too.
        if (!parseWhole(value.substr(10), s.rate) ||
            !(s.rate >= 0.0 && s.rate <= 1.0)) {
            if (error)
                *error = "rate must be in [0,1] in '" + value + "'";
            return false;
        }
        return true;
    }
    if (error)
        *error = "unknown mode '" + value + "'";
    return false;
}

bool
parseSpec(const std::string &spec, std::vector<Schedule> &out,
          std::string *error)
{
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t semi = spec.find(';', pos);
        const std::string part = spec.substr(
            pos, semi == std::string::npos ? std::string::npos
                                           : semi - pos);
        pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
        if (part.empty())
            continue;

        Schedule s;
        bool have_mode = false;
        std::size_t p = 0;
        while (p <= part.size()) {
            const std::size_t comma = part.find(',', p);
            const std::string kv = part.substr(
                p, comma == std::string::npos ? std::string::npos
                                              : comma - p);
            p = comma == std::string::npos ? part.size() + 1
                                           : comma + 1;
            if (kv.empty())
                continue;
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                if (error)
                    *error = "expected key=value, got '" + kv + "'";
                return false;
            }
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "site") {
                s.site_glob = value;
            } else if (key == "mode") {
                if (!parseMode(value, s, error))
                    return false;
                have_mode = true;
            } else if (key == "seed") {
                if (!parseWhole(value, s.seed)) {
                    if (error)
                        *error = "seed must be decimal digits in '" +
                                 kv + "'";
                    return false;
                }
            } else {
                if (error)
                    *error = "unknown key '" + key + "'";
                return false;
            }
        }
        if (s.site_glob.empty() || !have_mode) {
            if (error)
                *error = "schedule needs site= and mode= ('" + part +
                         "')";
            return false;
        }
        s.rng = Rng(s.seed);
        out.push_back(std::move(s));
    }
    return true;
}

} // anonymous namespace

bool
globMatch(const std::string &pattern, const char *name)
{
    // Iterative '*' glob: on mismatch, backtrack to the last star and
    // let it swallow one more character.
    const char *p = pattern.c_str();
    const char *n = name;
    const char *star = nullptr;
    const char *star_n = nullptr;
    while (*n) {
        if (*p == *n) {
            ++p;
            ++n;
        } else if (*p == '*') {
            star = p++;
            star_n = n;
        } else if (star) {
            p = star + 1;
            n = ++star_n;
        } else {
            return false;
        }
    }
    while (*p == '*')
        ++p;
    return *p == '\0';
}

Site::Site(const char *name) : name_(name)
{
    std::lock_guard<std::mutex> lock(mtx());
    siteList().push_back(this);
}

bool
Site::evalSlow(bool flip)
{
    std::lock_guard<std::mutex> lock(mtx());
    Config &cfg = config();
    if (cfg.schedules.empty())
        return false;
    if (resolved_gen_ != cfg.generation) {
        schedule_ = 0;
        for (std::size_t i = 0; i < cfg.schedules.size(); ++i) {
            if (globMatch(cfg.schedules[i].site_glob, name_)) {
                schedule_ = i + 1;
                break;
            }
        }
        resolved_gen_ = cfg.generation;
    }
    if (schedule_ == 0)
        return false;
    Schedule &s = cfg.schedules[schedule_ - 1];
    if (s.isFlip() != flip)
        return false;

    const std::uint64_t check =
        checks_.fetch_add(1, std::memory_order_relaxed) + 1;
    bool trigger = false;
    switch (s.mode) {
      case Mode::FailAlways:
        trigger = true;
        break;
      case Mode::FailNth:
      case Mode::FlipNth:
        trigger = check == s.nth;
        break;
      case Mode::FailRate:
      case Mode::FlipRate:
        trigger = s.rng.nextDouble() < s.rate;
        break;
    }
    if (trigger) {
        triggers_.fetch_add(1, std::memory_order_relaxed);
        util::verbose("fi: injected %s at site %s (check %llu)",
                      flip ? "bit flip" : "failure", name_,
                      static_cast<unsigned long long>(check));
    }
    return trigger;
}

bool
Site::corrupt(std::vector<std::uint8_t> &buf)
{
    if (!active() || buf.empty())
        return false;
    if (!evalSlow(true))
        return false;
    // The flipped bit walks the buffer deterministically with the
    // trigger count, so repeated corruptions of a re-read artifact
    // hit different offsets.
    const std::uint64_t t = triggers();
    const std::uint64_t bit =
        (t * 0x9e3779b97f4a7c15ull) % (buf.size() * 8);
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return true;
}

bool
configure(const std::string &spec, std::string *error)
{
    std::vector<Schedule> parsed;
    if (!parseSpec(spec, parsed, error))
        return false;
    std::lock_guard<std::mutex> lock(mtx());
    Config &cfg = config();
    cfg.schedules = std::move(parsed);
    cfg.spec = spec;
    ++cfg.generation;
    g_active.store(!cfg.schedules.empty(),
                   std::memory_order_relaxed);
    return true;
}

void
configureFromEnv()
{
    const std::string spec = envString("PGSS_FI", "");
    if (spec.empty())
        return;
    std::string error;
    if (!configure(spec, &error))
        util::warn("PGSS_FI ignored: %s", error.c_str());
    else
        util::inform("fault injection active: PGSS_FI=\"%s\"",
                     spec.c_str());
}

void
reset()
{
    std::lock_guard<std::mutex> lock(mtx());
    Config &cfg = config();
    cfg.schedules.clear();
    cfg.spec.clear();
    ++cfg.generation;
    g_active.store(false, std::memory_order_relaxed);
    for (Site *s : siteList()) {
        s->checks_.store(0, std::memory_order_relaxed);
        s->triggers_.store(0, std::memory_order_relaxed);
    }
    for (auto &[name, value] : counterMap())
        value.store(0, std::memory_order_relaxed);
}

std::vector<Site *>
sites()
{
    std::lock_guard<std::mutex> lock(mtx());
    return siteList();
}

std::string
activeSpec()
{
    std::lock_guard<std::mutex> lock(mtx());
    return config().spec;
}

std::atomic<std::uint64_t> &
counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx());
    return counterMap()[name];
}

std::vector<std::pair<std::string, std::uint64_t>>
counters()
{
    std::lock_guard<std::mutex> lock(mtx());
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counterMap().size());
    for (const auto &[name, value] : counterMap())
        out.emplace_back(name,
                         value.load(std::memory_order_relaxed));
    return out;
}

} // namespace pgss::util::fi
