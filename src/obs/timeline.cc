#include "obs/timeline.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "util/csv.hh"

namespace pgss::obs
{

namespace
{

std::unique_ptr<TimelineRecorder> g_recorder;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

void
collectCounters(const Group &g, const std::string &prefix,
                std::vector<std::pair<std::string, double>> &out)
{
    for (const Stat &s : g.stats())
        if (s.kind == StatKind::Counter)
            out.emplace_back(prefix + s.name,
                             static_cast<double>(s.counter()));
    for (const auto &c : g.children())
        collectCounters(*c, prefix + c->name() + ".", out);
}

} // anonymous namespace

TimelineRecorder::TimelineRecorder(const TimelineConfig &config)
    : config_(config),
      interval_(config.interval_ops ? config.interval_ops : 1),
      next_due_(interval_)
{
    if (config_.snapshot_capacity < 4)
        config_.snapshot_capacity = 4;
}

void
TimelineRecorder::advance(std::uint64_t ops_executed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    global_ops_ += ops_executed;
    if (global_ops_ < next_due_)
        return;
    takeSnapshot();
    next_due_ = global_ops_ + interval_;
}

void
TimelineRecorder::takeSnapshot()
{
    // Pull every Counter registered in the global stats tree. The
    // walk happens once per snapshot interval (>= 64k committed ops),
    // never per period.
    std::vector<std::pair<std::string, double>> now;
    collectCounters(registry().root(), "", now);

    ops_.push_back(global_ops_);
    for (const auto &[name, value] : now) {
        SnapshotSeries *s = nullptr;
        for (SnapshotSeries &known : series_)
            if (known.name == name) {
                s = &known;
                break;
            }
        if (!s) {
            series_.push_back({name, {}});
            s = &series_.back();
            // Series discovered mid-run: unknown before this row.
            s->values.assign(ops_.size() - 1, kNan);
        }
        s->values.push_back(value);
    }
    // Series whose component vanished from the walk cannot happen
    // (the registry only grows), but keep alignment defensive.
    for (SnapshotSeries &s : series_)
        if (s.values.size() != ops_.size())
            s.values.push_back(kNan);

    if (ops_.size() >= config_.snapshot_capacity)
        compactSnapshots();
}

void
TimelineRecorder::compactSnapshots()
{
    // Keep the even-indexed rows and double the snapshot stride:
    // retained rows stay uniformly spaced and row 0 (the first
    // snapshot) is always preserved.
    std::size_t out = 0;
    for (std::size_t i = 0; i < ops_.size(); i += 2)
        ops_[out++] = ops_[i];
    ops_.resize(out);
    for (SnapshotSeries &s : series_) {
        std::size_t o = 0;
        for (std::size_t i = 0; i < s.values.size(); i += 2)
            s.values[o++] = s.values[i];
        s.values.resize(o);
    }
    interval_ *= 2;
    ++compactions_;
}

TimelineRun *
TimelineRecorder::currentRun()
{
    if (runs_.empty())
        return nullptr;
    if (dropping_current_)
        return nullptr;
    return &runs_.back();
}

void
TimelineRecorder::beginRun(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (runs_.size() >= config_.max_runs) {
        ++dropped_runs_;
        dropping_current_ = true;
        return;
    }
    dropping_current_ = false;
    runs_.emplace_back(label, config_);
}

void
TimelineRecorder::recordPhase(std::uint64_t op, std::uint32_t phase)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (TimelineRun *run = currentRun())
        run->phase_timeline.record({op, phase});
}

void
TimelineRecorder::recordConvergence(std::uint32_t phase,
                                    std::uint64_t op,
                                    std::uint64_t samples, double mean,
                                    double ci_rel, bool closed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TimelineRun *run = currentRun();
    if (!run)
        return;
    TimelineRun::Curve *curve = nullptr;
    for (TimelineRun::Curve &c : run->curves)
        if (c.phase == phase) {
            curve = &c;
            break;
        }
    if (!curve) {
        if (run->curves.size() >= config_.max_phases) {
            ++run->dropped_curve_points;
            return;
        }
        run->curves.push_back(
            {phase, StridedSeries<ConvergencePoint>(
                        config_.curve_capacity)});
        curve = &run->curves.back();
    }
    curve->series.record({op, samples, mean, ci_rel, closed});
}

void
TimelineRecorder::recordThreshold(std::uint64_t op, double radians)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (TimelineRun *run = currentRun())
        run->threshold.record({op, radians});
}

std::vector<std::string>
TimelineRecorder::seriesNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const SnapshotSeries &s : series_)
        out.push_back(s.name);
    return out;
}

std::vector<double>
TimelineRecorder::series(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SnapshotSeries &s : series_)
        if (s.name == name)
            return s.values;
    return {};
}

void
TimelineRecorder::dumpJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    w.beginObject("timelines");
    w.field("schema_version", std::uint64_t{schema_version});
    w.field("interval_ops", interval_);
    w.field("global_ops", global_ops_);
    w.field("snapshot_compactions", compactions_);
    w.field("dropped_runs", dropped_runs_);

    w.beginObject("counters");
    w.beginArray("op");
    for (std::uint64_t op : ops_)
        w.value(op);
    w.endArray();
    w.beginObject("series");
    for (const SnapshotSeries &s : series_) {
        w.beginArray(s.name);
        for (double v : s.values)
            w.value(v); // NaN becomes null
        w.endArray();
    }
    w.endObject();
    w.endObject();

    w.beginArray("runs");
    for (const TimelineRun &run : runs_) {
        w.beginObject();
        w.field("label", run.label);
        const std::vector<PhasePoint> phases =
            run.phase_timeline.points();
        w.beginObject("phase_timeline");
        w.field("periods", run.phase_timeline.recorded());
        w.field("stride_periods", run.phase_timeline.stride());
        w.beginArray("op");
        for (const PhasePoint &p : phases)
            w.value(p.op);
        w.endArray();
        w.beginArray("phase");
        for (const PhasePoint &p : phases)
            w.value(std::uint64_t{p.phase});
        w.endArray();
        w.endObject();

        w.beginObject("convergence");
        for (const TimelineRun::Curve &c : run.curves) {
            const std::vector<ConvergencePoint> pts =
                c.series.points();
            w.beginObject(std::to_string(c.phase));
            w.beginArray("op");
            for (const ConvergencePoint &p : pts)
                w.value(p.op);
            w.endArray();
            w.beginArray("samples");
            for (const ConvergencePoint &p : pts)
                w.value(p.samples);
            w.endArray();
            w.beginArray("mean");
            for (const ConvergencePoint &p : pts)
                w.value(p.mean);
            w.endArray();
            w.beginArray("ci_rel");
            for (const ConvergencePoint &p : pts)
                w.value(p.ci_rel); // inf becomes null
            w.endArray();
            w.beginArray("closed");
            for (const ConvergencePoint &p : pts)
                w.value(std::uint64_t{p.closed ? 1u : 0u});
            w.endArray();
            w.endObject();
        }
        w.endObject();

        const std::vector<ThresholdPoint> moves =
            run.threshold.points();
        w.beginObject("threshold");
        w.beginArray("op");
        for (const ThresholdPoint &p : moves)
            w.value(p.op);
        w.endArray();
        w.beginArray("radians");
        for (const ThresholdPoint &p : moves)
            w.value(p.radians);
        w.endArray();
        w.endObject();
        if (run.dropped_curve_points)
            w.field("dropped_curve_points", run.dropped_curve_points);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
TimelineRecorder::writeCsv(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::CsvWriter csv(os);
    csv.writeRow({"kind", "run", "key", "op", "value", "samples",
                  "ci_rel", "closed"});

    auto num = [](double v) {
        if (std::isnan(v))
            return std::string();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        return std::string(buf);
    };

    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const std::string op = std::to_string(ops_[i]);
        for (const SnapshotSeries &s : series_)
            csv.writeRow({"counter", "", s.name, op,
                          num(s.values[i]), "", "", ""});
    }
    for (const TimelineRun &run : runs_) {
        for (const PhasePoint &p : run.phase_timeline.points())
            csv.writeRow({"phase", run.label, "",
                          std::to_string(p.op),
                          std::to_string(p.phase), "", "", ""});
        for (const TimelineRun::Curve &c : run.curves)
            for (const ConvergencePoint &p : c.series.points())
                csv.writeRow({"convergence", run.label,
                              std::to_string(c.phase),
                              std::to_string(p.op), num(p.mean),
                              std::to_string(p.samples),
                              num(p.ci_rel), p.closed ? "1" : "0"});
        for (const ThresholdPoint &p : run.threshold.points())
            csv.writeRow({"threshold", run.label, "",
                          std::to_string(p.op), num(p.radians), "",
                          "", ""});
    }
}

TimelineRecorder *
timelines()
{
    return g_recorder.get();
}

void
setTimelineRecorder(std::unique_ptr<TimelineRecorder> rec)
{
    g_recorder = std::move(rec);
}

} // namespace pgss::obs
