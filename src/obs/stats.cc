#include "obs/stats.hh"

#include <mutex>
#include <utility>

#include "obs/json.hh"
#include "util/logging.hh"

namespace pgss::obs
{

namespace
{

// One lock for every Group mutation in the process: registration is
// rare (component construction) and may race when worker threads build
// engines concurrently (bench::runSuite), while dumps/lookups
// run after workers join. A single coarse mutex keeps the hot read
// paths untouched.
std::mutex g_registration_mutex;

} // anonymous namespace

Group::Group(std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
}

void
Group::checkUnique(const std::string &name) const
{
    for (const Stat &s : stats_)
        if (s.name == name)
            util::panic("stats: duplicate name '%s' in group '%s'",
                        name.c_str(), name_.c_str());
    for (const auto &c : children_)
        if (c->name() == name)
            util::panic("stats: name '%s' collides with a child group "
                        "of '%s'",
                        name.c_str(), name_.c_str());
}

Group &
Group::child(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(g_registration_mutex);
    for (const auto &c : children_)
        if (c->name() == name)
            return *c;
    checkUnique(name);
    children_.push_back(std::make_unique<Group>(name, desc));
    return *children_.back();
}

void
Group::addCounter(const std::string &name, const std::string &desc,
                  std::function<std::uint64_t()> get)
{
    std::lock_guard<std::mutex> lock(g_registration_mutex);
    checkUnique(name);
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = StatKind::Counter;
    s.counter = std::move(get);
    stats_.push_back(std::move(s));
}

void
Group::addScalar(const std::string &name, const std::string &desc,
                 std::function<double()> get)
{
    std::lock_guard<std::mutex> lock(g_registration_mutex);
    checkUnique(name);
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = StatKind::Scalar;
    s.scalar = std::move(get);
    stats_.push_back(std::move(s));
}

void
Group::addFormula(const std::string &name, const std::string &desc,
                  std::function<double()> get)
{
    std::lock_guard<std::mutex> lock(g_registration_mutex);
    checkUnique(name);
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = StatKind::Formula;
    s.scalar = std::move(get);
    stats_.push_back(std::move(s));
}

void
Group::addVector(const std::string &name, const std::string &desc,
                 std::vector<std::string> elements,
                 std::function<std::vector<double>()> get)
{
    std::lock_guard<std::mutex> lock(g_registration_mutex);
    checkUnique(name);
    util::panicIf(elements.empty(), "vector stat with no elements");
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = StatKind::Vector;
    s.elements = std::move(elements);
    s.vec = std::move(get);
    stats_.push_back(std::move(s));
}

void
Group::dumpJson(JsonWriter &w) const
{
    for (const Stat &s : stats_) {
        switch (s.kind) {
          case StatKind::Counter:
            w.field(s.name, s.counter());
            break;
          case StatKind::Scalar:
          case StatKind::Formula:
            w.field(s.name, s.scalar());
            break;
          case StatKind::Vector: {
            const std::vector<double> vals = s.vec();
            util::panicIf(vals.size() != s.elements.size(),
                          "vector stat getter size mismatch");
            w.beginObject(s.name);
            for (std::size_t i = 0; i < vals.size(); ++i)
                w.field(s.elements[i], vals[i]);
            w.endObject();
            break;
          }
        }
    }
    for (const auto &c : children_) {
        w.beginObject(c->name());
        c->dumpJson(w);
        w.endObject();
    }
}

StatsRegistry::StatsRegistry() : root_("root", "stats root") {}

void
StatsRegistry::dumpJson(JsonWriter &w) const
{
    w.beginObject("stats");
    root_.dumpJson(w);
    w.endObject();
}

namespace
{

template <class Fn>
void
walkStats(const Group &g, const std::string &prefix, const Fn &fn)
{
    for (const Stat &s : g.stats()) {
        const std::string full = prefix + s.name;
        if (s.kind == StatKind::Vector) {
            for (std::size_t i = 0; i < s.elements.size(); ++i)
                fn(full + "." + s.elements[i], s, i);
        } else {
            fn(full, s, std::size_t{0});
        }
    }
    for (const auto &c : g.children())
        walkStats(*c, prefix + c->name() + ".", fn);
}

} // anonymous namespace

std::vector<std::pair<std::string, double>>
StatsRegistry::flattenValues() const
{
    std::vector<std::pair<std::string, double>> out;
    walkStats(root_, "stats.",
              [&out](const std::string &path, const Stat &s,
                     std::size_t elem) {
                  double v = 0.0;
                  switch (s.kind) {
                    case StatKind::Counter:
                      v = static_cast<double>(s.counter());
                      break;
                    case StatKind::Scalar:
                    case StatKind::Formula:
                      v = s.scalar();
                      break;
                    case StatKind::Vector: {
                      const std::vector<double> vals = s.vec();
                      v = elem < vals.size() ? vals[elem] : 0.0;
                      break;
                    }
                  }
                  out.emplace_back(path, v);
              });
    return out;
}

std::vector<std::pair<std::string, StatKind>>
StatsRegistry::flattenKinds() const
{
    std::vector<std::pair<std::string, StatKind>> out;
    walkStats(root_, "stats.",
              [&out](const std::string &path, const Stat &s,
                     std::size_t) { out.emplace_back(path, s.kind); });
    return out;
}

const Stat *
StatsRegistry::find(const std::string &path,
                    std::size_t *element_index) const
{
    const Group *g = &root_;
    std::size_t start = 0;
    while (true) {
        const std::size_t dot = path.find('.', start);
        const std::string part = path.substr(
            start, dot == std::string::npos ? std::string::npos
                                            : dot - start);
        // Child group with this name: descend.
        const Group *next = nullptr;
        for (const auto &c : g->children())
            if (c->name() == part)
                next = c.get();
        if (next && dot != std::string::npos) {
            g = next;
            start = dot + 1;
            continue;
        }
        // Otherwise it must name a stat of the current group.
        for (const Stat &s : g->stats()) {
            if (s.name != part)
                continue;
            if (s.kind == StatKind::Vector) {
                if (dot == std::string::npos)
                    return nullptr; // vector needs an element name
                const std::string elem = path.substr(dot + 1);
                for (std::size_t i = 0; i < s.elements.size(); ++i) {
                    if (s.elements[i] == elem) {
                        *element_index = i;
                        return &s;
                    }
                }
                return nullptr;
            }
            if (dot != std::string::npos)
                return nullptr; // trailing path after a scalar stat
            *element_index = 0;
            return &s;
        }
        return nullptr;
    }
}

std::optional<std::uint64_t>
StatsRegistry::counterValue(const std::string &path) const
{
    std::size_t idx = 0;
    const Stat *s = find(path, &idx);
    if (!s || s->kind != StatKind::Counter)
        return std::nullopt;
    return s->counter();
}

std::optional<double>
StatsRegistry::value(const std::string &path) const
{
    std::size_t idx = 0;
    const Stat *s = find(path, &idx);
    if (!s)
        return std::nullopt;
    switch (s->kind) {
      case StatKind::Counter:
        return static_cast<double>(s->counter());
      case StatKind::Scalar:
      case StatKind::Formula:
        return s->scalar();
      case StatKind::Vector:
        return s->vec().at(idx);
    }
    return std::nullopt;
}

} // namespace pgss::obs
