#include "obs/timeline.hh"

#include "obs/json.hh"

namespace pgss::obs
{

namespace
{

std::unique_ptr<TimelineRecorder> g_recorder;

} // anonymous namespace

TimelineRun *
TimelineRecorder::find(TimelineHandle run)
{
    return run.index < runs_.size() ? &runs_[run.index] : nullptr;
}

TimelineHandle
TimelineRecorder::beginRun(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (runs_.size() >= max_runs) {
        ++dropped_runs_;
        return {};
    }
    runs_.emplace_back(label);
    return {runs_.size() - 1};
}

void
TimelineRecorder::recordPhase(TimelineHandle run, std::uint64_t op,
                              std::uint32_t phase)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (TimelineRun *r = find(run))
        r->phase_timeline.record({op, phase});
}

void
TimelineRecorder::recordConvergence(TimelineHandle run,
                                    std::uint32_t phase,
                                    std::uint64_t op,
                                    std::uint64_t samples, double mean,
                                    double ci_rel, bool closed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TimelineRun *r = find(run);
    if (!r)
        return;
    TimelineRun::Curve *curve = nullptr;
    for (TimelineRun::Curve &c : r->curves)
        if (c.phase == phase) {
            curve = &c;
            break;
        }
    if (!curve) {
        if (r->curves.size() >= TimelineRun::max_curves) {
            ++r->dropped_curve_points;
            return;
        }
        r->curves.push_back(
            {phase, StridedSeries<ConvergencePoint>(
                        TimelineRun::curve_capacity)});
        curve = &r->curves.back();
    }
    curve->series.record({op, samples, mean, ci_rel, closed});
}

void
TimelineRecorder::dumpJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    w.beginObject("timelines");
    w.field("schema_version", std::uint64_t{schema_version});
    w.field("dropped_runs", dropped_runs_);

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
        if (run.dropped_curve_points)
            w.field("dropped_curve_points", run.dropped_curve_points);
        w.endObject();
    }
    w.endArray();
    w.endObject();
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
