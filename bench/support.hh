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
 * --profile-out=, see obs::parseObsFlags), install the timeline
 * recorder and span profiler, register the abnormal-exit flush
 * handlers, and stamp the report with the figure id and workload
 * scale. Call first thing in main().
 */
void init(int &argc, char **argv, const std::string &figure_id);

/**
 * Write the outputs the obs flags requested: the run report (the
 * fi.* and robust.* stats, plus the profile and timelines sections
 * when on) and the Perfetto trace. Call last in main().
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
 * loadEntry() over the paper's ten evaluation workloads. Entries load
 * (and ground-truth profiles build) on benchJobs() workers; the
 * returned order is always suite order.
 */
std::vector<Entry> loadSuite();

/** Harness worker threads (PGSS_JOBS env; default 1 = serial). */
std::size_t benchJobs();

/**
 * Run @p body(i) for every index in [0, n) on benchJobs() workers.
 * The per-entry convention that keeps parallel output identical to a
 * serial run: compute into pre-sized index-addressed slots inside
 * @p body, print serially afterwards. With PGSS_JOBS=1 (default) this
 * is a plain in-order loop on the calling thread.
 */
void runEntriesParallel(std::size_t n,
                        const std::function<void(std::size_t)> &body);

/** What one journaled entry produced (see runEntriesJournaled). */
struct EntryOutcome
{
    bool ok = false;           ///< body completed (now or earlier)
    bool from_journal = false; ///< replayed from the journal
    std::string payload;       ///< body's serialized result
    std::string error;         ///< what() when the body threw
};

/**
 * Resumable variant of runEntriesParallel(): run
 * @p body(i) -> payload for every entry not already completed in the
 * journal, recording one durable JSONL record per finished entry
 * (keyed by @p stage + entry name). With --resume, entries whose
 * success records are in the journal are skipped and their payloads
 * returned as recorded — the caller decodes payloads identically in
 * both cases, so resumed output is byte-identical to an uninterrupted
 * run. A body that throws becomes an error outcome (and an error
 * record) instead of taking down the suite; error records are retried
 * on resume. Without --journal this degrades to plain parallel
 * execution with per-entry isolation.
 */
std::vector<EntryOutcome>
runEntriesJournaled(const std::vector<Entry> &entries,
                    const std::string &stage,
                    const std::function<std::string(std::size_t)> &body);

/**
 * Encode doubles so decode(encode(x)) == x exactly (%.17g round
 * trip) — the payload convention journaled benches use.
 */
std::string encodeDoubles(const std::vector<double> &xs);
bool decodeDoubles(const std::string &payload,
                   std::vector<double> &out);

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
