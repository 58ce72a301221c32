/**
 * @file
 * Offline analysis of observability artefacts — the library behind
 * `tools/pgss_report`. Consumes pgss-run-report JSON documents (and
 * optionally a trace JSONL stream) and provides:
 *
 *  - loadReport(): parse + flatten every numeric leaf ("stats.*",
 *    "profile.*", numeric "meta.*", and the "perf.*" of version-1
 *    reports and bench snapshots) to its dotted path
 *  - renderReport(): aligned text tables plus ASCII phase timelines
 *    and per-phase CI-convergence curves from the "timelines" section
 *  - renderProfile()/renderProfileDiff(): the span-profiling
 *    "profile" section as category/flat/call-tree tables, and A-vs-B
 *    per-span self-time deltas
 *  - renderDiff()/diffReports(): A-vs-B comparison with percent
 *    deltas for every shared numeric path
 *  - checkReport()/checkTrace(): sanity checks — schema fields,
 *    monotonic axes, balanced sample open/close, trace eof
 *    accounting (lines == emitted - dropped) — the `pgss_report
 *    check` CI gate
 *  - benchSnapshotFromReport()/checkAgainstBaseline(): the perf
 *    history — distil a run report's per-mode engine spans into a
 *    pgss-bench-snapshot document (BENCH_pr<N>.json) and gate a
 *    fresh snapshot's perf.<mode>.mips against a committed baseline
 *    with a relative tolerance
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
    std::uint64_t trace_events = 0;      ///< event lines seen (trace)

    bool ok() const { return violations.empty(); }
    void merge(const CheckResult &other);
};

/**
 * Structural sanity of a run report: schema identity, finite values,
 * per-mode counter consistency, monotonic timeline axes, aligned
 * timeline arrays. A partial report is a warning, not a violation.
 */
CheckResult checkReport(const LoadedReport &report);

/**
 * Trace-stream sanity: every line parses, timestamps are monotonic,
 * sample_open/sample_close alternate (an open may be implicitly
 * closed by an engine restart, detected by the op counter moving
 * backwards), and the eof line's accounting matches the number of
 * event lines (lines == emitted - dropped). A missing eof line — an
 * interrupted run — is a warning.
 */
CheckResult checkTrace(std::istream &in);

/**
 * Distil @p report into a pgss-bench-snapshot JSON document: schema
 * identity, @p label (e.g. "pr4"), the program, numeric meta, and a
 * "perf" object with one "mode.<mode>" entry (calls, ops, seconds,
 * mips) per "profile.flat" row of the engine's "engine.<mode>" spans;
 * seconds is the row's total. A report without a profile section
 * yields an empty "perf" object. Snapshots are small enough to commit
 * (BENCH_pr<N>.json at the repo root) and loadReport() reads them
 * back, so "perf.mode.<mode>.mips" lines up between a fresh snapshot
 * and every committed baseline.
 */
std::string benchSnapshotFromReport(const LoadedReport &report,
                                    const std::string &label);

/**
 * The perf-history regression gate: compare every finite positive
 * "perf.*.mips" path of @p baseline (a bench snapshot) against
 * @p report (a snapshot of the run under test, or a version-1 report
 * with its "perf" section). A path whose current throughput is below
 * baseline * (1 - tolerance) is a violation; one above
 * baseline * (1 + tolerance) is a warning suggesting a baseline
 * refresh; a baseline path missing from the report is a warning. A
 * baseline with no comparable paths is itself a violation.
 */
CheckResult checkAgainstBaseline(const LoadedReport &report,
                                 const LoadedReport &baseline,
                                 double tolerance);

} // namespace pgss::obs

#endif // PGSS_OBS_ANALYZE_HH
