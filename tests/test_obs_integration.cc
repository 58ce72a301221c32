/**
 * @file
 * End-to-end observability tests over a real PGSS run: the stats
 * registry's per-mode op counters must equal the engine's ModeOps
 * accounting exactly, controller counters must match the PgssResult,
 * and the timelines must account for every period and sample.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/pgss_controller.hh"
#include "helpers.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "sim/engine.hh"

using namespace pgss;

TEST(ObsIntegration, PerModeCountersMatchModeOpsExactly)
{
    const workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program);
    obs::StatsRegistry reg;
    engine.registerStats(reg.root());

    core::PgssConfig config;
    config.bbv_period = 100'000;
    const core::PgssResult result =
        core::PgssController(config).run(engine);
    const sim::ModeOps &ops = engine.modeOps();

    // The report contract: registry counters equal ModeOps to the op.
    EXPECT_EQ(*reg.counterValue("engine.ops_functional_fast"),
              ops.functional_fast);
    EXPECT_EQ(*reg.counterValue("engine.ops_functional_warm"),
              ops.functional_warm);
    EXPECT_EQ(*reg.counterValue("engine.ops_detailed_warm"),
              ops.detailed_warm);
    EXPECT_EQ(*reg.counterValue("engine.ops_detailed_measure"),
              ops.detailed_measure);

    const std::uint64_t sum =
        *reg.counterValue("engine.ops_functional_fast") +
        *reg.counterValue("engine.ops_functional_warm") +
        *reg.counterValue("engine.ops_detailed_warm") +
        *reg.counterValue("engine.ops_detailed_measure");
    EXPECT_EQ(sum, ops.total());
    EXPECT_EQ(sum, result.mode_ops.total());
    EXPECT_EQ(*reg.counterValue("engine.total_ops"),
              engine.totalOps());
    EXPECT_EQ(sum, engine.totalOps());

    // The vector view agrees with the exact counters.
    EXPECT_DOUBLE_EQ(*reg.value("engine.mode_ops.functional_warm"),
                     static_cast<double>(ops.functional_warm));
    EXPECT_DOUBLE_EQ(*reg.value("engine.mode_ops.detailed_measure"),
                     static_cast<double>(ops.detailed_measure));
}

TEST(ObsIntegration, HierarchyBranchPipelineAndControllerStats)
{
    const workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program);
    obs::StatsRegistry reg;
    core::PgssConfig config;
    config.bbv_period = 100'000;
    core::PgssController controller(config);
    engine.registerStats(reg.root());
    controller.registerStats(reg.root());
    const core::PgssResult result = controller.run(engine);

    // Caches warmed and exercised by functional warming + samples.
    EXPECT_GT(*reg.counterValue("engine.l1d.misses"), 0u);
    EXPECT_GT(*reg.value("engine.l1d.miss_ratio"), 0.0);
    EXPECT_GT(*reg.counterValue("engine.branch.lookups"), 0u);
    EXPECT_GT(*reg.counterValue("engine.branch.btb.lookups"), 0u);
    EXPECT_GT(*reg.counterValue("engine.pipeline.instructions"), 0u);
    EXPECT_GT(*reg.value("engine.pipeline.ipc"), 0.0);
    EXPECT_LE(*reg.value("engine.pipeline.issue_occupancy"), 1.0);

    // Detailed instructions == detailed-mode ops (pipeline only ever
    // consumes in the two detailed modes).
    EXPECT_EQ(*reg.counterValue("engine.pipeline.instructions"),
              engine.modeOps().detailed());

    // Controller counters mirror the result.
    EXPECT_EQ(*reg.counterValue("pgss.samples"), result.n_samples);
    EXPECT_EQ(*reg.counterValue("pgss.phases"), result.n_phases);
    EXPECT_GT(*reg.counterValue("pgss.periods"), 0u);
    EXPECT_DOUBLE_EQ(*reg.value("pgss.threshold"),
                     result.final_threshold);
}

TEST(ObsIntegration, TimelineAccountsEveryPeriodAndSample)
{
    obs::setTimelineRecorder(std::make_unique<obs::TimelineRecorder>());

    const workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program);
    obs::StatsRegistry reg;
    core::PgssConfig config;
    config.bbv_period = 100'000;
    core::PgssController controller(config);
    controller.registerStats(reg.root());
    const core::PgssResult result = controller.run(engine);

    const obs::TimelineRecorder *tl = obs::timelines();
    ASSERT_NE(tl, nullptr);
    ASSERT_EQ(tl->runs().size(), 1u);
    const obs::TimelineRun &run = tl->runs().front();

    // One phase point per classified period.
    EXPECT_EQ(run.phase_timeline.recorded(),
              *reg.counterValue("pgss.periods"));
    EXPECT_GT(run.phase_timeline.recorded(), 0u);

    // One convergence point per credited sample.
    std::uint64_t curve_points = 0;
    for (const obs::TimelineRun::Curve &c : run.curves)
        curve_points += c.series.recorded();
    EXPECT_EQ(curve_points, result.n_samples);
    EXPECT_GT(result.n_samples, 0u);

    // Op positions never move backwards; every id is a real phase.
    std::uint64_t last_op = 0;
    for (const obs::PhasePoint &p : run.phase_timeline.points()) {
        EXPECT_GE(p.op, last_op);
        last_op = p.op;
        EXPECT_LT(p.phase, result.n_phases);
    }

    obs::setTimelineRecorder(nullptr);
    EXPECT_EQ(obs::timelines(), nullptr);
}
