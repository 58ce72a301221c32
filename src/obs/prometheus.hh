/**
 * @file
 * Prometheus text-format (exposition format 0.0.4) encoding of a run
 * report — the offline `pgss_report metrics` export, so a finished
 * run's numbers can be pushed to a Prometheus-compatible store.
 *
 * Naming scheme (DESIGN.md section 8.6): every dotted report path maps
 * 1:1 onto a metric name by prefixing "pgss_" and replacing each
 * character outside [a-zA-Z0-9_] with '_':
 *
 *     stats.engine.l1d.miss_ratio -> pgss_stats_engine_l1d_miss_ratio
 *     stats.engine.total_ops      -> pgss_stats_engine_total_ops
 *
 * The HELP line carries the dotted source path, so the mapping is
 * reversible by eye. Types: stats-registry Counters are Prometheus
 * counters; everything else (scalars, formulas, rates, meta) is a
 * gauge. Run reports carry a flat "stat_kinds" section recording each
 * stats path's kind; reports predating it fall back to the fixed
 * rules of defaultMetricType().
 *
 * Rendering is canonical: families in first-seen order, one HELP and
 * one TYPE line per family, then the family's one unlabelled sample.
 *
 * parsePrometheusText() is the matching validator — a small strict
 * parser the tests (and CI) use to prove the payload is well-formed,
 * not a general scrape client.
 */

#ifndef PGSS_OBS_PROMETHEUS_HH
#define PGSS_OBS_PROMETHEUS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace pgss::obs
{

class StatsRegistry;
struct LoadedReport;

/** Prometheus metric type (the subset PGSS emits). */
enum class MetricType : std::uint8_t
{
    Counter,
    Gauge,
    Untyped,
};

const char *metricTypeName(MetricType t);

/** One metric family: identity, type, and its one value. */
struct MetricFamily
{
    std::string name; ///< already sanitized ("pgss_...")
    std::string help; ///< HELP text (source dotted path)
    MetricType type = MetricType::Gauge;
    double value = 0.0;
};

/** "stats.engine.l1d.hits" -> "pgss_stats_engine_l1d_hits". */
std::string promMetricName(const std::string &dotted_path);

/** Escape HELP text (backslash, newline). */
std::string promEscapeHelp(const std::string &s);

/** Render @p families canonically (see file comment). */
void renderPromText(std::ostream &os,
                    const std::vector<MetricFamily> &families);

/**
 * Build one family per (dotted path, value) pair, in input order,
 * typed by @p typeOf(path). Paths whose sanitized names collide with
 * an earlier family are dropped (duplicate family names are invalid
 * exposition format; dotted report paths never collide in practice).
 */
std::vector<MetricFamily> familiesFromValues(
    const std::vector<std::pair<std::string, double>> &values,
    const std::function<MetricType(const std::string &)> &typeOf);

/**
 * The offline export: every flattened numeric leaf of @p report
 * (meta.*, stats.*, profile.*, and a version-1 report's perf.*) as
 * metric families, typed from the report's "stat_kinds" section plus
 * the fixed rules.
 */
std::vector<MetricFamily>
familiesFromReport(const LoadedReport &report);

/** The fixed type rules for a path with no recorded kind: the
 * calls/ops/seconds of a version-1 report's "perf" section are
 * counters, everything else is a gauge. */
MetricType defaultMetricType(const std::string &dotted_path);

/** One parsed sample line. */
struct ParsedMetric
{
    std::string name;
    double value = 0.0;
};

/** Families seen by the validator. */
struct ParsedFamilies
{
    std::vector<ParsedMetric> samples; ///< document order
    /** (family name, TYPE string) in document order. */
    std::vector<std::pair<std::string, std::string>> types;

    /** First sample value whose name matches; NaN when absent. */
    double value(const std::string &name) const;

    bool has(const std::string &name) const;
};

/**
 * Strictly parse Prometheus text exposition @p text as the encoder
 * writes it: valid metric names, no labels, parseable values, at
 * most one TYPE per family and before that family's samples.
 * @return false with @p *error set at the first malformed line.
 */
bool parsePrometheusText(const std::string &text, ParsedFamilies *out,
                         std::string *error);

} // namespace pgss::obs

#endif // PGSS_OBS_PROMETHEUS_HH
