/**
 * @file
 * Timeline recorder invariants: stride-doubling downsampling keeps
 * first/last points and bounded memory; counter snapshots stay
 * aligned across compactions; per-phase convergence curves are
 * deterministic under a fixed RNG seed and their CI narrows; an
 * adaptive run records every threshold move.
 */

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pgss_controller.hh"
#include "obs/json.hh"
#include "obs/json_read.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

using pgss::obs::ConvergencePoint;
using pgss::obs::PhasePoint;
using pgss::obs::StridedSeries;
using pgss::obs::TimelineConfig;
using pgss::obs::TimelineRecorder;
using pgss::obs::TimelineRun;

namespace
{

/** RAII install/remove of the global recorder around a test. */
class ScopedRecorder
{
  public:
    explicit ScopedRecorder(const TimelineConfig &config)
    {
        pgss::obs::setTimelineRecorder(
            std::make_unique<TimelineRecorder>(config));
    }

    ~ScopedRecorder() { pgss::obs::setTimelineRecorder(nullptr); }

    TimelineRecorder &operator*() { return *pgss::obs::timelines(); }
    TimelineRecorder *operator->() { return pgss::obs::timelines(); }
};

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

TEST(TimelineRecorderTest, SnapshotsFollowIntervalAndCompact)
{
    TimelineConfig config;
    config.interval_ops = 100;
    config.snapshot_capacity = 8;
    ScopedRecorder rec(config);

    for (int i = 0; i < 40; ++i)
        rec->advance(50); // 2000 ops total, snapshot every 100

    // 8-row capacity forced compactions; stride doubled past 100.
    EXPECT_GT(rec->snapshotCompactions(), 0u);
    EXPECT_GT(rec->intervalOps(), 100u);
    EXPECT_EQ(rec->globalOps(), 2000u);
    const std::vector<std::uint64_t> &ops = rec->snapshotOps();
    ASSERT_FALSE(ops.empty());
    EXPECT_LT(ops.size(), 8u);
    for (std::size_t i = 1; i < ops.size(); ++i)
        EXPECT_GT(ops[i], ops[i - 1]);
}

TEST(TimelineRecorderTest, CounterSeriesAlignAcrossDiscovery)
{
    TimelineConfig config;
    config.interval_ops = 10;
    ScopedRecorder rec(config);

    // Static so the registered getters stay valid for the process
    // lifetime (the global registry only grows, by design).
    static std::uint64_t c1 = 0;
    static std::uint64_t c2 = 0;
    pgss::obs::Group &g = pgss::obs::registry().root().child(
        "tlalign", "timeline alignment test");
    g.addCounter("c1", "first counter", [] { return c1; });

    c1 = 5;
    rec->advance(10); // snapshot 1: only c1 exists
    g.addCounter("c2", "late counter", [] { return c2; });
    c1 = 9;
    c2 = 3;
    rec->advance(10); // snapshot 2: c2 discovered mid-run

    const std::vector<double> s1 = rec->series("tlalign.c1");
    const std::vector<double> s2 = rec->series("tlalign.c2");
    ASSERT_EQ(s1.size(), 2u);
    ASSERT_EQ(s2.size(), 2u);
    EXPECT_DOUBLE_EQ(s1[0], 5.0);
    EXPECT_DOUBLE_EQ(s1[1], 9.0);
    EXPECT_TRUE(std::isnan(s2[0])); // unknown before discovery
    EXPECT_DOUBLE_EQ(s2[1], 3.0);
}

TEST(TimelineRecorderTest, RunsPhasesAndCurvesRecord)
{
    ScopedRecorder rec(TimelineConfig{});
    rec->beginRun("a");
    rec->recordPhase(100, 1);
    rec->recordPhase(200, 1);
    rec->recordPhase(300, 2);
    rec->recordConvergence(1, 150, 1, 2.0, 0.5, false);
    rec->recordConvergence(1, 250, 2, 2.1, 0.2, false);
    rec->recordConvergence(2, 350, 1, 3.0, 0.4, true);
    rec->beginRun("b");
    rec->recordPhase(50, 7);

    const std::vector<TimelineRun> &runs = rec->runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "a");
    EXPECT_EQ(runs[0].phase_timeline.recorded(), 3u);
    ASSERT_EQ(runs[0].curves.size(), 2u);
    EXPECT_EQ(runs[0].curves[0].phase, 1u);
    EXPECT_EQ(runs[0].curves[0].series.recorded(), 2u);
    EXPECT_EQ(runs[1].label, "b");
    EXPECT_EQ(runs[1].phase_timeline.points()[0].phase, 7u);
}

TEST(TimelineRecorderTest, DropsRunsBeyondCapAndCounts)
{
    TimelineConfig config;
    config.max_runs = 2;
    ScopedRecorder rec(config);
    for (int i = 0; i < 5; ++i) {
        rec->beginRun("run" + std::to_string(i));
        rec->recordPhase(10, 0); // dropped silently past the cap
    }
    EXPECT_EQ(rec->runs().size(), 2u);
    EXPECT_EQ(rec->droppedRuns(), 3u);
}

TEST(TimelineRecorderTest, DumpJsonIsValidAndComplete)
{
    TimelineConfig config;
    config.interval_ops = 64;
    ScopedRecorder rec(config);
    rec->advance(64);
    rec->beginRun("pgss");
    rec->recordPhase(64, 0);
    rec->recordConvergence(0, 64, 1, 1.5,
                           std::numeric_limits<double>::infinity(),
                           false);
    rec->recordThreshold(64, 0.25);

    pgss::obs::JsonWriter w;
    w.beginObject();
    rec->dumpJson(w);
    w.endObject();
    ASSERT_TRUE(w.complete());

    pgss::obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(pgss::obs::parseJson(w.str(), doc, &err)) << err;
    const pgss::obs::JsonValue *tl = doc.get("timelines");
    ASSERT_TRUE(tl);
    EXPECT_EQ(tl->get("schema_version")->asUint(),
              TimelineRecorder::schema_version);
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
    const pgss::obs::JsonValue *th = runs->array[0].get("threshold");
    ASSERT_TRUE(th);
    ASSERT_EQ(th->get("op")->array.size(), 1u);
    EXPECT_EQ(th->get("op")->array[0].asUint(), 64u);
    ASSERT_EQ(th->get("radians")->array.size(), 1u);
    EXPECT_DOUBLE_EQ(th->get("radians")->array[0].number, 0.25);
}

TEST(TimelineRecorderTest, CsvHasHeaderAndAllKinds)
{
    TimelineConfig config;
    config.interval_ops = 64;
    ScopedRecorder rec(config);
    rec->advance(64);
    rec->beginRun("r");
    rec->recordPhase(10, 3);
    rec->recordConvergence(3, 10, 1, 2.0, 0.1, true);
    rec->recordThreshold(20, 0.5);

    std::ostringstream csv;
    rec->writeCsv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("kind,run,key,op,value,samples,ci_rel,closed"),
              std::string::npos);
    EXPECT_NE(text.find("phase,r,,10,3"), std::string::npos);
    EXPECT_NE(text.find("convergence,r,3,10,2,1,0.1,1"),
              std::string::npos);
    EXPECT_NE(text.find("threshold,r,,20,0.5"), std::string::npos);
}

// ---- End-to-end: PGSS controller feeds the recorder ---------------

namespace
{

pgss::core::PgssResult
runPgssWithTimelines()
{
    using namespace pgss;
    auto built = test::twoPhaseWorkload(300'000.0, 4);
    sim::SimulationEngine engine(built.program);
    core::PgssConfig config;
    config.bbv_period = 50'000;
    config.min_sample_spacing = 200'000;
    core::PgssController controller(config);
    return controller.run(engine);
}

} // anonymous namespace

TEST(TimelinePgssTest, CurvesNarrowAndCloseDeterministically)
{
    ScopedRecorder rec(TimelineConfig{});
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
        for (const ConvergencePoint &p : pts) {
            // Sample counts only grow along a curve, ops only advance.
            EXPECT_GE(p.samples, prev_samples);
            prev_samples = p.samples;
        }
        // Once enough samples accumulate the relative CI must have
        // narrowed below its n=2 starting point for a closed curve.
        if (pts.back().closed && pts.back().samples >= 4)
            EXPECT_LT(pts.back().ci_rel, 1.0);
    }

    // Determinism: the fixed jitter seed reproduces the whole CSV —
    // counter snapshots, phase timelines and convergence curves.
    const auto csv = [](TimelineRecorder &r) {
        std::ostringstream out;
        r.writeCsv(out);
        return out.str();
    };
    const std::string first = csv(*rec);
    pgss::obs::setTimelineRecorder(
        std::make_unique<TimelineRecorder>(TimelineConfig{}));
    runPgssWithTimelines();
    EXPECT_EQ(first, csv(*pgss::obs::timelines()));
}

TEST(TimelinePgssTest, AdaptiveThresholdMovesAreRecorded)
{
    using namespace pgss;
    ScopedRecorder rec(TimelineConfig{});
    auto built = test::twoPhaseWorkload(300'000.0, 4);
    sim::SimulationEngine engine(built.program);
    core::PgssConfig config;
    config.bbv_period = 10'000;
    // Mis-tuned high: the two phases merge, so the pooled CPI
    // dispersion pushes the threshold down.
    config.threshold = 0.25 * M_PI;
    config.adaptive.enabled = true;
    const core::PgssResult result =
        core::PgssController(config).run(engine);
    ASSERT_GT(result.threshold_adjustments, 0u);

    ASSERT_EQ(rec->runs().size(), 1u);
    const TimelineRun &run = rec->runs().front();
    EXPECT_EQ(run.threshold.recorded(), result.threshold_adjustments);
    const std::vector<pgss::obs::ThresholdPoint> moves =
        run.threshold.points();
    ASSERT_FALSE(moves.empty());
    EXPECT_EQ(moves.back().radians, result.final_threshold);
}

TEST(TimelinePgssTest, DisabledRecorderRecordsNothing)
{
    pgss::obs::setTimelineRecorder(nullptr);
    runPgssWithTimelines(); // must not crash touching hooks
    EXPECT_EQ(pgss::obs::timelines(), nullptr);
}
