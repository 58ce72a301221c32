/**
 * @file
 * Machine-readable run reports and the CLI/env plumbing every bench
 * and example binary shares. A run report is one JSON document
 * (schema "pgss-run-report", version report_schema_version)
 * containing:
 *
 *   - "program": the binary/figure identifier
 *   - "partial": false normally; true when written by the abnormal-
 *     exit path (signal or atexit before finalize())
 *   - "meta": free-form key/value annotations (workload scale, ...)
 *   - "stats": the global StatsRegistry tree
 *   - "timelines": time-series section (only when timelines are on;
 *     see obs/timeline.hh and DESIGN.md section 8.5)
 *   - "profile": span-profiler section (only when profiling is on;
 *     see obs/spans.hh and DESIGN.md section 11); its
 *     "engine.<mode>" rows are the per-mode host time and MIPS
 *
 * Flags (also honoured as environment variables):
 *   --stats-json=<path>        (PGSS_STATS_JSON)        write the
 *                              report on finalize()
 *   --timelines                (PGSS_TIMELINES=1)       enable the
 *                              timeline recorder; adds the
 *                              "timelines" report section
 *   --profile                  (PGSS_PROFILE=1)         enable the
 *                              span profiler; adds the "profile"
 *                              report section
 *   --profile-out=<path>       (PGSS_PROFILE_OUT)       enable it and
 *                              also write a Chrome/Perfetto
 *                              trace_event JSON (ui.perfetto.dev)
 *
 * All flag stripping lives in parseObsFlags() so the bench and
 * example binaries share one implementation. initFromCli() strips the
 * flags it consumes from argv so positional argument parsing in the
 * binaries keeps working, installs the requested sinks, and registers
 * the abnormal-exit handlers (std::atexit plus SIGINT/SIGTERM) that
 * write a partial run report and Perfetto trace, so an interrupted
 * long run still yields usable observability data.
 */

#ifndef PGSS_OBS_REPORT_HH
#define PGSS_OBS_REPORT_HH

#include <cstdint>
#include <string>

#include "obs/stats.hh"

namespace pgss::obs
{

/**
 * Version of the "pgss-run-report" document. 2 dropped the "perf"
 * section (per-mode host timing moved to the profile's engine spans);
 * 3 dropped the networking stats (the "net" fault sites under
 * "stats.fi" and the retry counter under "stats.robust"); 4 dropped
 * the checkpoint library's five degradation counters from
 * "stats.robust"; 5 dropped "stats.pgss.threshold" and its move
 * counter with the adaptive threshold.
 * Reports of versions 1 to 4 still load, show, diff and export.
 */
constexpr std::uint32_t report_schema_version = 5;

/**
 * The process-wide stats registry that finalize() reports. Components
 * registered here must stay alive until after finalize().
 */
StatsRegistry &registry();

/** Everything the shared observability flags can request. */
struct ObsFlags
{
    std::string stats_json;  ///< run-report path ("" = off)
    std::string profile_out; ///< trace_event JSON path ("" = none)
    bool timelines = false;  ///< record timelines
    bool profile = false;    ///< record spans (implied by
                             ///< profile_out)
};

/**
 * Parse and remove the observability flags from @p argv (falling back
 * to the corresponding environment variables; an explicit flag wins).
 * Shared by every bench and example binary — do not re-implement flag
 * stripping per binary.
 */
ObsFlags parseObsFlags(int &argc, char **argv);

/**
 * Install what @p flags request: the timeline recorder, the span
 * profiler, and the report/trace output paths consumed by
 * finalize().
 */
void applyObsFlags(const ObsFlags &flags);

/**
 * parseObsFlags() + applyObsFlags() + abnormal-exit handlers, and
 * remember @p program_name for the report header. Also arms fault
 * injection from PGSS_FI and registers the fault/robustness stats
 * (registerRobustnessStats()). Call once at the top of main(). The
 * exit handlers stay armed until finalize(); a later call re-arms
 * them.
 */
void initFromCli(int &argc, char **argv,
                 const std::string &program_name);

/**
 * Register every util::fi fault site (per-site check and injection
 * counters, under "fi.<prefix>.*") and the robustness degradation
 * counters (under "robust.*" — quarantines, degraded seeks, rebuild
 * fast-forwards, ...) into registry(), so they flow into run reports.
 * Idempotent; called by initFromCli(). Binaries that skip
 * initFromCli() can call it directly.
 */
void registerRobustnessStats();

/** Annotate the report's "meta" object (last write per key wins). */
void setReportMeta(const std::string &key, const std::string &value);
void setReportMeta(const std::string &key, double value);

/** The complete run-report JSON document, as finalize() writes it. */
std::string reportJsonString();

/**
 * Write the run report and Perfetto trace that
 * --stats-json/--profile-out requested. Call once at the end of
 * main(), while every component registered into registry() is still
 * alive. @return false when a requested output could not be written.
 */
bool finalize();

/** Path the report will be written to ("" when not requested). */
const std::string &statsJsonPath();

/** Path the Perfetto trace will be written to ("" when not requested). */
const std::string &profileOutPath();

} // namespace pgss::obs

#endif // PGSS_OBS_REPORT_HH
