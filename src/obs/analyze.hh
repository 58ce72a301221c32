/**
 * @file
 * Offline analysis of observability artefacts — the library behind
 * `tools/pgss_report`. Consumes pgss-run-report JSON documents and
 * provides:
 *
 *  - loadReport(): parse + flatten every numeric leaf ("stats.*",
 *    "profile.*", numeric "meta.*", and the "perf.*" of version-1
 *    reports and of the historical BENCH_pr4/7/9.json snapshots) to
 *    its dotted path
 *  - renderReport(): aligned text tables plus ASCII phase timelines
 *    and per-phase CI-convergence curves from the "timelines" section
 *  - renderProfile()/renderProfileDiff(): the span-profiling
 *    "profile" section as category/flat/call-tree tables, and A-vs-B
 *    per-span self-time deltas
 *  - renderDiff()/diffReports(): A-vs-B comparison with percent
 *    deltas for every shared numeric path
 *  - checkReport(): sanity checks — schema fields, profile
 *    accounting, monotonic and aligned timeline axes — the
 *    `pgss_report check` CI gate
 *
 * Kept in src/obs (not tools/) so the logic is unit-testable against
 * the golden reports in tests/data/.
 */

#ifndef PGSS_OBS_ANALYZE_HH
#define PGSS_OBS_ANALYZE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_read.hh"

namespace pgss::obs
{

/** A parsed run report plus its flattened numeric view. */
struct LoadedReport
{
    std::string path;    ///< where it was loaded from (display only)
    std::string program; ///< "program" field
    bool partial = false;
    JsonValue doc;

    /**
     * Every numeric leaf as (dotted path, value), document order:
     * "stats.engine.total_ops", "meta.workload_scale",
     * "profile.flat.engine.functional_warm.mips", ... Null leaves
     * (non-finite doubles)
     * appear as NaN. The "timelines" section is not flattened.
     */
    std::vector<std::pair<std::string, double>> values;

    /** Value at @p path or NaN when absent. */
    double value(const std::string &path) const;
};

/** Parse the report document in @p text. */
bool loadReportFromString(const std::string &text, LoadedReport &out,
                          std::string *error);

/** Read and parse the report file at @p path. */
bool loadReport(const std::string &path, LoadedReport &out,
                std::string *error);

/**
 * Render header, stats table, the "profile" section when present,
 * and — when the report has a "timelines" section — the ASCII phase
 * timeline and per-phase CI-convergence curves of every recorded run.
 */
void renderReport(std::ostream &os, const LoadedReport &report);

/** Render just the "timelines" section (no-op when absent). */
void renderTimelines(std::ostream &os, const LoadedReport &report);

/**
 * Render the span-profiling "profile" section: the summary line
 * (spans recorded/dropped, wall clock, measured per-span overhead),
 * the per-category self-time table, the flat top-@p top_n spans by
 * self time, and the indented call tree. Prints a pointer at
 * --profile when the section is absent.
 */
void renderProfile(std::ostream &os, const LoadedReport &report,
                   std::size_t top_n = 20);

/**
 * A-vs-B per-span comparison over the two reports' "profile.flat"
 * tables: self seconds and call counts with percent deltas, ordered
 * by max(self A, self B).
 */
void renderProfileDiff(std::ostream &os, const LoadedReport &a,
                       const LoadedReport &b);

/** One A-vs-B comparison row. */
struct DiffRow
{
    std::string path;
    double a = 0.0;
    double b = 0.0;

    /** Percent change B vs A (NaN when A is 0 and B differs). */
    double percent() const;
};

/** Rows for every numeric path present in both reports. */
std::vector<DiffRow> diffReports(const LoadedReport &a,
                                 const LoadedReport &b);

/**
 * Render the A-vs-B table: every shared counter/scalar with percent
 * deltas, plus the paths unique to one side (counts only).
 */
void renderDiff(std::ostream &os, const LoadedReport &a,
                const LoadedReport &b);

/** Outcome of a sanity check. */
struct CheckResult
{
    std::vector<std::string> violations; ///< hard failures (CI gate)
    std::vector<std::string> warnings;   ///< suspicious but tolerated

    bool ok() const { return violations.empty(); }
};

/**
 * Structural sanity of a run report: schema identity, finite values,
 * per-mode counter consistency, monotonic timeline axes, aligned
 * timeline arrays. A partial report is a warning, not a violation.
 */
CheckResult checkReport(const LoadedReport &report);

} // namespace pgss::obs

#endif // PGSS_OBS_ANALYZE_HH
