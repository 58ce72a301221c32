/**
 * @file
 * Timeline recorder invariants: stride-doubling downsampling keeps
 * first/last points and bounded memory; each run records through its
 * own handle, also from concurrent threads; per-phase convergence
 * curves are deterministic under a fixed RNG seed and their CI
 * narrows.
 */

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pgss_controller.hh"
#include "obs/json.hh"
#include "obs/json_read.hh"
#include "obs/timeline.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

using pgss::obs::ConvergencePoint;
using pgss::obs::PhasePoint;
using pgss::obs::StridedSeries;
using pgss::obs::TimelineHandle;
using pgss::obs::TimelineRecorder;
using pgss::obs::TimelineRun;

namespace
{

/** RAII install/remove of the global recorder around a test. */
class ScopedRecorder
{
  public:
    ScopedRecorder()
    {
        pgss::obs::setTimelineRecorder(
            std::make_unique<TimelineRecorder>());
    }

    ~ScopedRecorder() { pgss::obs::setTimelineRecorder(nullptr); }

    TimelineRecorder &operator*() { return *pgss::obs::timelines(); }
    TimelineRecorder *operator->() { return pgss::obs::timelines(); }
};

/** The recorder's "timelines" section as JSON text. */
std::string
timelinesJson(const TimelineRecorder &rec)
{
    pgss::obs::JsonWriter w;
    w.beginObject();
    rec.dumpJson(w);
    w.endObject();
    return w.str();
}

} // anonymous namespace

TEST(StridedSeriesTest, KeepsEverythingBelowCapacity)
{
    StridedSeries<PhasePoint> s(16);
    for (std::uint64_t i = 0; i < 10; ++i)
        s.record({i * 100, static_cast<std::uint32_t>(i)});
    const std::vector<PhasePoint> pts = s.points();
    ASSERT_EQ(pts.size(), 10u);
    EXPECT_EQ(s.stride(), 1u);
    EXPECT_EQ(s.compactions(), 0u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(pts[i].op, i * 100);
}

TEST(StridedSeriesTest, StrideDoublingPreservesFirstAndLast)
{
    StridedSeries<PhasePoint> s(8);
    constexpr std::uint64_t kN = 1000;
    for (std::uint64_t i = 0; i < kN; ++i)
        s.record({i, 0});

    EXPECT_EQ(s.recorded(), kN);
    EXPECT_GT(s.compactions(), 0u);
    const std::vector<PhasePoint> pts = s.points();
    // Bounded memory: capacity plus the separately-tracked last point.
    EXPECT_LE(pts.size(), s.capacity() + 1);
    // First and most recent records always survive compaction.
    EXPECT_EQ(pts.front().op, 0u);
    EXPECT_EQ(pts.back().op, kN - 1);
    // Retained interior points are uniformly stride() apart.
    for (std::size_t i = 1; i + 1 < pts.size(); ++i)
        EXPECT_EQ(pts[i].op - pts[i - 1].op, s.stride());
}

TEST(StridedSeriesTest, MemoryStaysBoundedForever)
{
    StridedSeries<ConvergencePoint> s(32);
    for (std::uint64_t i = 0; i < 100'000; ++i)
        s.record({i, i, 1.0, 0.5, false});
    EXPECT_LE(s.points().size(), 33u);
    // 100k records through a 32-slot buffer: stride is a power of two
    // large enough that capacity bounds retained points.
    EXPECT_GE(s.stride() * 32, 100'000u);
}

TEST(TimelineRecorderTest, RunsPhasesAndCurvesRecord)
{
    ScopedRecorder rec;
    // Two open runs with interleaved records: each record lands in
    // the run its handle names, not in the run that began last.
    const TimelineHandle a = rec->beginRun("a");
    const TimelineHandle b = rec->beginRun("b");
    rec->recordPhase(a, 100, 1);
    rec->recordPhase(b, 50, 7);
    rec->recordPhase(a, 200, 1);
    rec->recordConvergence(a, 1, 150, 1, 2.0, 0.5, false);
    rec->recordPhase(a, 300, 2);
    rec->recordConvergence(a, 1, 250, 2, 2.1, 0.2, false);
    rec->recordConvergence(a, 2, 350, 1, 3.0, 0.4, true);

    const std::vector<TimelineRun> &runs = rec->runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "a");
    EXPECT_EQ(runs[0].phase_timeline.recorded(), 3u);
    ASSERT_EQ(runs[0].curves.size(), 2u);
    EXPECT_EQ(runs[0].curves[0].phase, 1u);
    EXPECT_EQ(runs[0].curves[0].series.recorded(), 2u);
    EXPECT_EQ(runs[1].label, "b");
    EXPECT_EQ(runs[1].phase_timeline.recorded(), 1u);
    EXPECT_EQ(runs[1].phase_timeline.points()[0].phase, 7u);
    EXPECT_TRUE(runs[1].curves.empty());
}

TEST(TimelineRecorderTest, DropsRunsBeyondCapAndCounts)
{
    ScopedRecorder rec;
    constexpr std::size_t kRuns = TimelineRecorder::max_runs + 3;
    std::vector<TimelineHandle> handles;
    for (std::size_t i = 0; i < kRuns; ++i) {
        handles.push_back(rec->beginRun("run" + std::to_string(i)));
        rec->recordPhase(handles.back(), 10, 0);
    }
    ASSERT_EQ(rec->runs().size(), TimelineRecorder::max_runs);
    EXPECT_EQ(rec->droppedRuns(), 3u);
    for (const TimelineRun &run : rec->runs())
        EXPECT_EQ(run.phase_timeline.recorded(), 1u);

    // Past the cap, and from a default handle, records are discarded
    // silently: the last kept run gains nothing.
    rec->recordPhase(handles.back(), 20, 1);
    rec->recordPhase(TimelineHandle{}, 20, 1);
    EXPECT_EQ(rec->runs().back().phase_timeline.recorded(), 1u);
}

TEST(TimelineRecorderTest, DumpJsonIsValidAndComplete)
{
    ScopedRecorder rec;
    const TimelineHandle run = rec->beginRun("pgss");
    rec->recordPhase(run, 64, 0);
    rec->recordConvergence(run, 0, 64, 1, 1.5,
                           std::numeric_limits<double>::infinity(),
                           false);

    pgss::obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(pgss::obs::parseJson(timelinesJson(*rec), doc, &err))
        << err;
    const pgss::obs::JsonValue *tl = doc.get("timelines");
    ASSERT_TRUE(tl);
    EXPECT_EQ(tl->get("schema_version")->asUint(), 3u);
    // No counter snapshots and none of their fields.
    for (const char *gone : {"counters", "interval_ops", "global_ops",
                             "snapshot_compactions"})
        EXPECT_EQ(tl->get(gone), nullptr) << gone;
    const pgss::obs::JsonValue *runs = tl->get("runs");
    ASSERT_TRUE(runs && runs->isArray());
    ASSERT_EQ(runs->array.size(), 1u);
    const pgss::obs::JsonValue *conv =
        runs->array[0].get("convergence");
    ASSERT_TRUE(conv);
    // Infinite CI half-width serializes as null, not bare Inf.
    const pgss::obs::JsonValue *curve = conv->get("0");
    ASSERT_TRUE(curve);
    EXPECT_TRUE(curve->get("ci_rel")->array[0].isNull());
    // Schema 3: the threshold is fixed, so runs carry no threshold
    // series.
    EXPECT_EQ(runs->array[0].get("threshold"), nullptr);
}

// ---- End-to-end: PGSS controller feeds the recorder ---------------

namespace
{

pgss::core::PgssResult
runPgss(const pgss::isa::Program &program)
{
    using namespace pgss;
    sim::SimulationEngine engine(program);
    core::PgssConfig config;
    config.bbv_period = 50'000;
    config.min_sample_spacing = 200'000;
    core::PgssController controller(config);
    return controller.run(engine);
}

pgss::core::PgssResult
runPgssWithTimelines()
{
    return runPgss(pgss::test::twoPhaseWorkload(300'000.0, 4).program);
}

} // anonymous namespace

TEST(TimelinePgssTest, CurvesNarrowAndCloseDeterministically)
{
    ScopedRecorder rec;
    runPgssWithTimelines();

    const std::vector<TimelineRun> &runs = rec->runs();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].label, "pgss");
    EXPECT_GT(runs[0].phase_timeline.recorded(), 0u);
    ASSERT_FALSE(runs[0].curves.empty());

    for (const TimelineRun::Curve &c : runs[0].curves) {
        const std::vector<ConvergencePoint> pts = c.series.points();
        ASSERT_FALSE(pts.empty());
        std::uint64_t prev_samples = 0;
        std::uint64_t prev_op = 0;
        for (const ConvergencePoint &p : pts) {
            // Sample counts only grow along a curve, ops only advance.
            EXPECT_GE(p.samples, prev_samples);
            EXPECT_GT(p.op, prev_op);
            prev_samples = p.samples;
            prev_op = p.op;
        }
        // Once enough samples accumulate the relative CI must have
        // narrowed below its n=2 starting point for a closed curve.
        if (pts.back().closed && pts.back().samples >= 4) {
            EXPECT_LT(pts.back().ci_rel, 1.0);
        }
    }

    // Determinism: the fixed jitter start reproduces the whole
    // section — phase timelines and convergence curves.
    const std::string first = timelinesJson(*rec);
    pgss::obs::setTimelineRecorder(std::make_unique<TimelineRecorder>());
    runPgssWithTimelines();
    EXPECT_EQ(first, timelinesJson(*pgss::obs::timelines()));
}

TEST(TimelinePgssTest, DisabledRecorderRecordsNothing)
{
    pgss::obs::setTimelineRecorder(nullptr);
    runPgssWithTimelines(); // must not crash touching hooks
    EXPECT_EQ(pgss::obs::timelines(), nullptr);
}

TEST(TimelineParallel, ConcurrentRunsStayApart)
{
    // Two controllers on two threads record under one recorder at
    // once, as PGSS_JOBS workers do. Each run's records must land in
    // its own run, not in whichever run began last.
    ScopedRecorder rec;
    const auto built = pgss::test::twoPhaseWorkload(300'000.0, 4);
    std::thread first([&] { runPgss(built.program); });
    std::thread second([&] { runPgss(built.program); });
    first.join();
    second.join();

    const std::vector<TimelineRun> &runs = rec->runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_GT(runs[0].phase_timeline.recorded(), 0u);
    EXPECT_EQ(runs[0].phase_timeline.recorded(),
              runs[1].phase_timeline.recorded());
    for (const TimelineRun &run : runs) {
        const std::vector<PhasePoint> pts = run.phase_timeline.points();
        for (std::size_t i = 1; i < pts.size(); ++i)
            EXPECT_GT(pts[i].op, pts[i - 1].op) << run.label << " @" << i;
    }
}
