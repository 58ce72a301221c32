/**
 * @file
 * Time-series observability: bounded-memory timelines of what each
 * sampling run did over simulated time, complementing the end-of-run
 * aggregates of the stats registry.
 *
 * Two kinds of series per named run, both constant-memory for
 * arbitrarily long runs via stride-doubling downsampling (when a
 * buffer fills, every other retained point is dropped and the
 * sampling stride doubles, so retained points stay uniformly spaced
 * and the memory bound is the buffer's capacity):
 *
 *  - Phase timeline: the sequence of (op, phase id) classifications
 *    a sampling controller made.
 *  - Convergence curves: per phase, one point per credited sample —
 *    running sample count, mean, relative CI half-width, and
 *    open/closed state — the curve that shows each stratum's
 *    confidence interval closing over time.
 *
 * Push-only: samplers record into the run handle beginRun() gave
 * them, and the recorder reads nothing of the simulator. Off by
 * default; when no recorder is installed a sampler makes one
 * null-pointer check per period, and the engine none. Enabled, the
 * cost is one struct append per classification or sample.
 *
 * Serialized into the run report as the schema-versioned "timelines"
 * section (DESIGN.md section 8.5), which `tools/pgss_report` renders.
 */

#ifndef PGSS_OBS_TIMELINE_HH
#define PGSS_OBS_TIMELINE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pgss::obs
{

class JsonWriter;

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
    static constexpr std::size_t phase_capacity = 512; ///< per timeline
    static constexpr std::size_t curve_capacity = 128; ///< per curve
    static constexpr std::size_t max_curves = 256;     ///< per run

    explicit TimelineRun(std::string run_label)
        : label(std::move(run_label)), phase_timeline(phase_capacity)
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

    /** Curve points discarded because max_curves was reached. */
    std::uint64_t dropped_curve_points = 0;
};

/**
 * A sampling run's slot in the recorder, returned by beginRun(). Each
 * run records through its own handle, so runs on concurrent PGSS_JOBS
 * workers never mix. A default handle, and the handle of a run past
 * the run cap, discards its records.
 */
struct TimelineHandle
{
    static constexpr std::size_t discard = SIZE_MAX;
    std::size_t index = discard; ///< into TimelineRecorder::runs()
};

/**
 * The process-wide time-series recorder. Install with
 * setTimelineRecorder(); samplers null-check timelines() once per run
 * and record nothing when it is absent.
 *
 * Thread safety: beginRun() and the record calls serialize on an
 * internal mutex, and each run records through its own handle, so
 * samplers on worker threads may record concurrently. Which runs fill
 * the max_runs slots depends on the order runs begin in.
 */
class TimelineRecorder
{
  public:
    /** Schema version of the "timelines" report section. */
    static constexpr std::uint32_t schema_version = 3;

    static constexpr std::size_t max_runs = 64; ///< named runs kept

    /**
     * Start a new named run and return its handle. Beyond max_runs
     * the run is counted as dropped and its handle discards records.
     */
    TimelineHandle beginRun(const std::string &label);

    /** Record one period classification of run @p run. */
    void recordPhase(TimelineHandle run, std::uint64_t op,
                     std::uint32_t phase);

    /** Record one credited sample of run @p run. */
    void recordConvergence(TimelineHandle run, std::uint32_t phase,
                           std::uint64_t op, std::uint64_t samples,
                           double mean, double ci_rel, bool closed);

    /** Every kept run; read once the recording threads are done. */
    const std::vector<TimelineRun> &runs() const { return runs_; }
    std::uint64_t droppedRuns() const { return dropped_runs_; }

    /** Serialize as a keyed "timelines" object into @p w. */
    void dumpJson(JsonWriter &w) const;

  private:
    /** The run @p run names, or nullptr when it discards. */
    TimelineRun *find(TimelineHandle run);

    mutable std::mutex mutex_;
    std::vector<TimelineRun> runs_;
    std::uint64_t dropped_runs_ = 0;
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
