/**
 * @file
 * Hierarchical statistics registry in the gem5 Stats tradition, pull
 * style: components keep their existing plain counters (zero hot-path
 * cost) and register named getters into a tree of groups. Dumping
 * snapshots every getter, so a dump always reflects the live counter
 * values at that instant.
 *
 * Four stat kinds:
 *  - Counter: monotonically-growing integral count (exact uint64).
 *  - Scalar:  a measured floating-point quantity.
 *  - Formula: a value derived from other stats (ratios, rates),
 *             recomputed at every dump.
 *  - Vector:  a fixed set of named elements (e.g. ops per SimMode).
 *
 * Lifetime contract: a getter captures a reference to the component it
 * reads from, so the component must outlive every dump/lookup of the
 * registry it registered into. Registries are cheap; make one per
 * measurement scope rather than re-binding components.
 *
 * Names: lowercase snake_case, unique among the stats AND child groups
 * of one group (duplicate registration panics). The full dotted path
 * ("engine.l1d.miss_ratio") is the stable identifier documented in
 * DESIGN.md section 8 — renaming a stat is a schema change.
 *
 * Thread safety: registration (child()/add*()) is serialized by one
 * process-wide mutex so worker threads may build engines concurrently;
 * dumps and lookups are unsynchronized reads and must happen while no
 * thread is registering (in practice: after workers join).
 */

#ifndef PGSS_OBS_STATS_HH
#define PGSS_OBS_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pgss::obs
{

class JsonWriter;

/** What a registered stat measures; drives dump formatting. */
enum class StatKind : std::uint8_t
{
    Counter, ///< exact integral count
    Scalar,  ///< floating-point quantity
    Formula, ///< derived value, recomputed per dump
    Vector,  ///< named elements, each a double
};

/** One registered stat: identity plus its getter(s). */
struct Stat
{
    std::string name;
    std::string desc;
    StatKind kind = StatKind::Scalar;

    std::function<std::uint64_t()> counter; ///< Counter only
    std::function<double()> scalar;         ///< Scalar/Formula only

    std::vector<std::string> elements;        ///< Vector only
    std::function<std::vector<double>()> vec; ///< Vector only
};

/**
 * A named node of the stats tree: holds stats and child groups.
 * Created through StatsRegistry::root() / Group::child().
 */
class Group
{
  public:
    Group(std::string name, std::string desc);

    /** Create-or-get the child group @p name. */
    Group &child(const std::string &name, const std::string &desc = "");

    /** Register an exact integral counter. */
    void addCounter(const std::string &name, const std::string &desc,
                    std::function<std::uint64_t()> get);

    /** Register a floating-point scalar. */
    void addScalar(const std::string &name, const std::string &desc,
                   std::function<double()> get);

    /** Register a derived formula (ratio/rate), evaluated per dump. */
    void addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> get);

    /** Register a vector stat with one named element per entry. */
    void addVector(const std::string &name, const std::string &desc,
                   std::vector<std::string> elements,
                   std::function<std::vector<double>()> get);

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }
    const std::vector<Stat> &stats() const { return stats_; }
    const std::vector<std::unique_ptr<Group>> &children() const
    {
        return children_;
    }

  private:
    friend class StatsRegistry;

    void checkUnique(const std::string &name) const;
    void dumpJson(JsonWriter &w) const;

    std::string name_;
    std::string desc_;
    std::vector<Stat> stats_;
    std::vector<std::unique_ptr<Group>> children_;
};

/**
 * The tree root plus whole-tree operations: JSON dump (the run
 * report's "stats" section, see DESIGN.md section 8) and dotted-path
 * value lookup for tests and report assembly.
 */
class StatsRegistry
{
  public:
    StatsRegistry();

    Group &root() { return root_; }
    const Group &root() const { return root_; }

    /** Serialize the whole tree into @p w as a "stats" object. */
    void dumpJson(JsonWriter &w) const;

    /**
     * Every stat as ("stats.<dotted path>", value), tree order, with
     * Vector stats flattened one element per entry — exactly the
     * paths obs::loadReport() recovers from a run report. Calls every
     * getter (same cost as one dump).
     */
    std::vector<std::pair<std::string, double>> flattenValues() const;

    /**
     * Every stat as ("stats.<dotted path>", kind), tree order,
     * aligned with flattenValues() (Vector elements carry
     * StatKind::Vector). The run report records it as "stat_kinds",
     * which types `pgss_report metrics` output. Cheap: no getters
     * are called.
     */
    std::vector<std::pair<std::string, StatKind>>
    flattenKinds() const;

    /**
     * Exact value of the Counter at dotted @p path
     * ("engine.l1d.hits"); nullopt when absent or not a Counter.
     */
    std::optional<std::uint64_t>
    counterValue(const std::string &path) const;

    /**
     * Value of the Scalar/Formula at dotted @p path, or of a Vector
     * element addressed as "group.stat.element". Counters are
     * returned converted to double. nullopt when absent.
     */
    std::optional<double> value(const std::string &path) const;

  private:
    const Stat *find(const std::string &path,
                     std::size_t *element_index) const;

    Group root_;
};

} // namespace pgss::obs

#endif // PGSS_OBS_STATS_HH
