/**
 * @file
 * Shared plumbing for the figure-reproduction bench binaries: the
 * evaluation suite at the configured scale, cached ground-truth
 * profiles, and common printing. Every bench prints which scale it
 * ran at (PGSS_SCALE, default 1.0) because the workloads are scaled
 * SPEC2000 analogues — see DESIGN.md section 2.
 */

#ifndef PGSS_BENCH_SUPPORT_HH
#define PGSS_BENCH_SUPPORT_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/interval_profile.hh"
#include "sim/engine.hh"
#include "workload/suite.hh"

namespace pgss::bench
{

/** One evaluation workload: program + ground truth. */
struct Entry
{
    std::string name;       ///< full SPEC-style name
    std::string short_name; ///< e.g. "gzip"
    workload::BuiltWorkload built;
    analysis::IntervalProfile profile;
};

/**
 * Observability plumbing shared by every bench: parse and strip the
 * obs flags (--stats-json= / --timelines / --profile /
 * --profile-out=, see obs::parseObsFlags) and the journal flags
 * (--journal= / --resume, see runSuite), install the timeline
 * recorder and span profiler, register the abnormal-exit flush
 * handlers, and stamp the report with the figure id and workload
 * scale. Call first thing in main().
 */
void init(int &argc, char **argv, const std::string &figure_id);

/**
 * Write the outputs the obs flags requested: the run report (the
 * fi.* and robust.* stats, plus the profile and timelines sections
 * when on) and the Perfetto trace. Warns when a journal was given to
 * a bench that never called runSuite(). Call last in main().
 */
void finish();

/** The workload scale in effect (PGSS_SCALE env, default 1.0). */
double benchScale();

/** The engine configuration all benches simulate. */
const sim::EngineConfig &benchConfig();

/**
 * Build @p name at the bench scale and load/build its ground-truth
 * profile (100k-op granularity) through the on-disk cache.
 */
Entry loadEntry(const std::string &name);

/**
 * loadEntry() over @p names, by default the paper's ten evaluation
 * workloads. Entries load (and ground-truth profiles build) on the
 * PGSS_JOBS workers; the returned order is always the order of
 * @p names.
 */
std::vector<Entry>
loadSuite(const std::vector<std::string> &names = workload::suiteNames());

/**
 * Run a suite's entries: @p body(i) computes entry i's row of
 * @p width doubles (width > 0), on the PGSS_JOBS workers (unset or 1
 * = serial, in order, on the calling thread). @return one row per
 * entry, in entry order. Print from the rows afterwards, serially, and
 * the output is identical at any PGSS_JOBS and after a resume.
 *
 * Under --journal=PATH (env PGSS_JOURNAL) each finished entry appends
 * one durable JSONL record keyed by @p stage, the entry name and the
 * workload scale, holding its row as %.17g round-trip doubles. Under
 * --resume (env PGSS_RESUME=1) the journal is read at each call and
 * an entry with a matching record is replayed instead of run. A
 * record that does not decode to @p width doubles, or that was written
 * at another scale, is not replayed: its entry runs again, with one
 * warning. A body that throws becomes an error record and a warning,
 * and its row comes back empty; a resume retries it.
 */
std::vector<std::vector<double>>
runSuite(const std::vector<Entry> &entries, const std::string &stage,
         std::size_t width,
         const std::function<std::vector<double>(std::size_t)> &body);

/** One host-throughput measurement of measureRates(). */
struct RateSpec
{
    sim::SimMode mode = sim::SimMode::FunctionalFast;
    bool bbv = false; ///< hashed BBV on, harvested every chunk
};

/**
 * Host throughput (simulated ops per second) of every spec in
 * @p specs on @p built, over @p reps interleaved repetitions:
 * repetition r measures each spec in turn, so host drift lands on
 * every spec alike. One measurement builds a fresh engine, runs an
 * untimed 200k-op warm-up (the decode-table build lands there), then
 * times 100k-op chunks until 4M ops have run, harvesting the hashed
 * BBV after each chunk when it is on and restarting the program when
 * it halts. @return rates[spec][repetition].
 */
std::vector<std::vector<double>>
measureRates(const workload::BuiltWorkload &built,
             const std::vector<RateSpec> &specs, int reps);

/** Print the standard bench header (figure id, scale, note). */
void printHeader(const std::string &figure, const std::string &note);

/** Geometric mean of positive values (zeros contribute epsilon). */
double geoMean(const std::vector<double> &xs);

/** Arithmetic mean. */
double mean(const std::vector<double> &xs);

} // namespace pgss::bench

#endif // PGSS_BENCH_SUPPORT_HH
