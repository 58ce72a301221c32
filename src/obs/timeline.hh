/**
 * @file
 * Time-series observability: bounded-memory timelines of what a run
 * did over simulated time, complementing the end-of-run aggregates of
 * the stats registry and the raw event stream of the trace sink.
 *
 * Three kinds of series, all constant-memory for arbitrarily long
 * runs via stride-doubling downsampling (when a buffer fills, every
 * other retained point is dropped and the sampling stride doubles, so
 * retained points stay uniformly spaced and the memory bound is the
 * configured capacity):
 *
 *  - Counter snapshots: every `interval_ops` committed instructions
 *    (accumulated across every engine in the process), the recorder
 *    snapshots each Counter registered in the global stats registry
 *    onto one shared op axis.
 *  - Phase timeline: per named run, the sequence of (op, phase id)
 *    classifications a sampling controller made.
 *  - Convergence curves: per named run and phase, one point per
 *    credited sample — running sample count, mean, relative CI
 *    half-width, and open/closed state — the curve that shows each
 *    stratum's confidence interval closing over time.
 *
 * Off by default: when no recorder is installed, the only cost is one
 * null-pointer branch per engine.run() chunk (per period, never per
 * instruction). Enabled, the cost is one registry walk per snapshot
 * interval and one struct append per classification/sample.
 *
 * Lifetime contract matches the stats registry: counter snapshots
 * call registered getters, so components registered into the global
 * registry must stay alive while a recorder is installed and engines
 * are running.
 *
 * Serialized into the run report as the schema-versioned "timelines"
 * section and, with --timeline-out=, as long-format CSV (DESIGN.md
 * section 8.5). `tools/pgss_report` renders both.
 */

#ifndef PGSS_OBS_TIMELINE_HH
#define PGSS_OBS_TIMELINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pgss::obs
{

class JsonWriter;
class StatsRegistry;

/** Tuning knobs; the defaults bound memory to a few hundred KiB. */
struct TimelineConfig
{
    /**
     * Committed ops between counter snapshots (initial stride; doubles
     * whenever the snapshot table fills).
     */
    std::uint64_t interval_ops = 65'536;

    std::size_t snapshot_capacity = 256; ///< rows in the snapshot table
    std::size_t phase_capacity = 512;    ///< points per phase timeline
    std::size_t curve_capacity = 128;    ///< points per convergence curve
    std::size_t max_phases = 256;        ///< tracked phases per run
    std::size_t max_runs = 64;           ///< named runs kept
};

/** One phase-timeline point: the period ending at @p op classified. */
struct PhasePoint
{
    std::uint64_t op = 0;
    std::uint32_t phase = 0;
};

/** One convergence-curve point, recorded when a sample is credited. */
struct ConvergencePoint
{
    std::uint64_t op = 0;      ///< global op position of the sample
    std::uint64_t samples = 0; ///< samples credited so far
    double mean = 0.0;         ///< running sample mean (CPI)
    double ci_rel = 0.0;       ///< CI half-width / |mean| (inf if n<2)
    bool closed = false;       ///< stratum within confidence bounds
};

/**
 * Fixed-capacity series that keeps every `stride()`th recorded point.
 * When full it compacts to the even-indexed points and doubles the
 * stride, so retained points stay uniformly `stride()` records apart.
 * The first and the most recent record are always preserved: the
 * first is never compacted away and the latest is tracked separately
 * and appended by points().
 */
template <class T>
class StridedSeries
{
  public:
    explicit StridedSeries(std::size_t capacity = 128)
        : capacity_(capacity < 4 ? 4 : capacity)
    {
    }

    void
    record(const T &p)
    {
        last_ = p;
        if (recorded_++ % stride_ == 0) {
            points_.push_back(p);
            if (points_.size() >= capacity_) {
                compactEven();
                stride_ *= 2;
                ++compactions_;
            }
        }
    }

    /** Retained points plus the latest record when it was strided out. */
    std::vector<T>
    points() const
    {
        std::vector<T> out = points_;
        if (recorded_ > 0 &&
            (out.empty() || out.back().op != last_.op))
            out.push_back(last_);
        return out;
    }

    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t stride() const { return stride_; }
    std::uint64_t compactions() const { return compactions_; }
    std::size_t capacity() const { return capacity_; }

  private:
    void
    compactEven()
    {
        std::size_t out = 0;
        for (std::size_t i = 0; i < points_.size(); i += 2)
            points_[out++] = points_[i];
        points_.resize(out);
    }

    std::size_t capacity_;
    std::vector<T> points_;
    T last_{};
    std::uint64_t recorded_ = 0;
    std::uint64_t stride_ = 1;
    std::uint64_t compactions_ = 0;
};

/** One named sampling run: its phase timeline and convergence curves. */
struct TimelineRun
{
    TimelineRun(std::string run_label, const TimelineConfig &config)
        : label(std::move(run_label)),
          phase_timeline(config.phase_capacity)
    {
    }

    std::string label;
    StridedSeries<PhasePoint> phase_timeline;

    /** Curves in phase-id order (sparse; find by Curve::phase). */
    struct Curve
    {
        std::uint32_t phase = 0;
        StridedSeries<ConvergencePoint> series;
    };
    std::vector<Curve> curves;

    /** Curve points discarded because max_phases was reached. */
    std::uint64_t dropped_curve_points = 0;
};

/**
 * The process-wide time-series recorder. Install with
 * setTimelineRecorder(); every hook is a no-op free when the global
 * recorder is absent (callers null-check timelines()).
 *
 * Thread safety: the hooks (advance(), beginRun(), recordPhase(),
 * recordConvergence()) serialize on an internal mutex, so engines on
 * worker threads cannot corrupt the recorder. Counter snapshots pull
 * live getters, however, so values read from engines running on other
 * threads are approximate; and runs started concurrently interleave
 * into one sequence. Parallel benches should prefer recording
 * timelines only on serial runs.
 */
class TimelineRecorder
{
  public:
    /** Schema version of the "timelines" report section. */
    static constexpr std::uint32_t schema_version = 1;

    explicit TimelineRecorder(const TimelineConfig &config = {});

    const TimelineConfig &config() const { return config_; }

    // ---- Hot-path hook -------------------------------------------
    /**
     * Account @p ops_executed committed instructions (called by the
     * engine once per run() chunk) and snapshot every registered
     * counter when the accumulated position crosses the next snapshot
     * boundary.
     */
    void advance(std::uint64_t ops_executed);

    // ---- Sampler hooks -------------------------------------------
    /**
     * Start a new named run; subsequent recordPhase()/
     * recordConvergence() calls land in it. Beyond max_runs the run
     * is counted as dropped and its records discarded.
     */
    void beginRun(const std::string &label);

    /** Record one period classification of the current run. */
    void recordPhase(std::uint64_t op, std::uint32_t phase);

    /** Record one credited sample of the current run. */
    void recordConvergence(std::uint32_t phase, std::uint64_t op,
                           std::uint64_t samples, double mean,
                           double ci_rel, bool closed);

    // ---- Introspection (tests, report assembly) ------------------
    /** Current snapshot stride in ops (doubles on compaction). */
    std::uint64_t intervalOps() const { return interval_; }

    /** Committed ops accumulated across every engine. */
    std::uint64_t globalOps() const { return global_ops_; }

    /** Times the snapshot table compacted (stride doublings). */
    std::uint64_t snapshotCompactions() const { return compactions_; }

    /** The shared snapshot op axis. */
    const std::vector<std::uint64_t> &snapshotOps() const
    {
        return ops_;
    }

    /** Names of every counter series discovered so far. */
    std::vector<std::string> seriesNames() const;

    /**
     * Values of series @p name aligned to snapshotOps(); NaN before
     * the series was first discovered. Empty when unknown.
     */
    std::vector<double> series(const std::string &name) const;

    const std::vector<TimelineRun> &runs() const { return runs_; }
    std::uint64_t droppedRuns() const { return dropped_runs_; }

    // ---- Emission ------------------------------------------------
    /** Serialize as a keyed "timelines" object into @p w. */
    void dumpJson(JsonWriter &w) const;

    /**
     * Long-format CSV: kind,run,key,op,value,samples,ci_rel,closed —
     * counter snapshots, phase timelines, and convergence curves in
     * one table (DESIGN.md section 8.5).
     */
    void writeCsv(std::ostream &os) const;

  private:
    struct SnapshotSeries
    {
        std::string name;
        std::vector<double> values; ///< aligned to ops_, NaN-padded
    };

    void takeSnapshot();
    void compactSnapshots();
    TimelineRun *currentRun();

    mutable std::mutex mutex_;
    TimelineConfig config_;
    std::uint64_t interval_;
    std::uint64_t global_ops_ = 0;
    std::uint64_t next_due_;
    std::uint64_t compactions_ = 0;

    std::vector<std::uint64_t> ops_;
    std::vector<SnapshotSeries> series_;

    std::vector<TimelineRun> runs_;
    std::uint64_t dropped_runs_ = 0;
    bool dropping_current_ = false; ///< current run is over max_runs
};

/** The process-wide recorder, or nullptr when timelines are off. */
TimelineRecorder *timelines();

/**
 * Install (or, with nullptr, remove) the process-wide recorder. The
 * previous recorder is destroyed.
 */
void setTimelineRecorder(std::unique_ptr<TimelineRecorder> rec);

} // namespace pgss::obs

#endif // PGSS_OBS_TIMELINE_HH
