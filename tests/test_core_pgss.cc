/** @file End-to-end tests for the PGSS-Sim controller. */

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "analysis/interval_profile.hh"
#include "core/pgss_controller.hh"
#include "tests/helpers.hh"

using namespace pgss;
using core::PgssConfig;
using core::PgssController;
using core::PgssResult;

namespace
{

PgssConfig
testConfig()
{
    PgssConfig c;
    c.bbv_period = 50'000;
    c.min_sample_spacing = 200'000;
    return c;
}

} // namespace

TEST(Pgss, FindsTheTwoPhases)
{
    auto built = test::twoPhaseWorkload(300'000.0, 4);
    sim::SimulationEngine engine(built.program);
    PgssController ctl(testConfig());
    const PgssResult r = ctl.run(engine);
    // Two behaviours plus possibly a boundary-straddling phase or
    // two; never dozens.
    EXPECT_GE(r.n_phases, 2u);
    EXPECT_LE(r.n_phases, 6u);
    EXPECT_GE(r.n_phase_changes, 7u); // 4 rounds x 2 transitions
}

TEST(Pgss, EstimateTracksGroundTruth)
{
    // Enough recurrences that the program's cold-start transient
    // (which every sampling technique under-represents) amortises.
    auto built = test::twoPhaseWorkload(300'000.0, 10);
    const analysis::IntervalProfile profile =
        analysis::buildIntervalProfile(built.program, {}, 50'000);
    sim::SimulationEngine engine(built.program);
    PgssController ctl(testConfig());
    const PgssResult r = ctl.run(engine);
    EXPECT_NEAR(r.est_ipc, profile.trueIpc(),
                0.10 * profile.trueIpc());
}

TEST(Pgss, DetailedSimulationIsTinyFractionOfProgram)
{
    auto built = test::twoPhaseWorkload(300'000.0, 4);
    sim::SimulationEngine engine(built.program);
    PgssController ctl(testConfig());
    const PgssResult r = ctl.run(engine);
    EXPECT_LT(static_cast<double>(r.detailed_ops),
              0.05 * static_cast<double>(r.total_ops));
    EXPECT_EQ(r.detailed_ops, r.mode_ops.detailed());
    EXPECT_EQ(r.mode_ops.total(), r.total_ops);
}

TEST(Pgss, ConvergedPhasesStopBeingSampled)
{
    // With many recurrences of the same two stable phases, samples
    // per phase must not grow with program length once CIs close. A
    // looser CI target makes convergence attainable at test scale.
    PgssConfig cfg = testConfig();
    cfg.relative_error = 0.10;
    auto short_run = test::twoPhaseWorkload(300'000.0, 3);
    auto long_run = test::twoPhaseWorkload(300'000.0, 9);

    sim::SimulationEngine e1(short_run.program);
    sim::SimulationEngine e2(long_run.program);
    PgssController ctl(cfg);
    const PgssResult r1 = ctl.run(e1);
    const PgssResult r2 = ctl.run(e2);
    EXPECT_GT(r2.total_ops, 2 * r1.total_ops);
    // Detailed ops grow far slower than program length (3x).
    EXPECT_LT(r2.detailed_ops, 2 * r1.detailed_ops + 20'000);
}

TEST(Pgss, SampleSpacingRespected)
{
    PgssConfig cfg = testConfig();
    cfg.min_sample_spacing = 150'000;
    auto built = test::twoPhaseWorkload(400'000.0, 3);
    sim::SimulationEngine engine(built.program);
    const PgssResult r = PgssController(cfg).run(engine);
    ASSERT_GT(r.timeline.size(), 2u);
    // Consecutive samples within one phase respect the spacing.
    std::map<std::uint32_t, std::uint64_t> last;
    for (const core::SampleEvent &ev : r.timeline) {
        auto it = last.find(ev.phase_id);
        if (it != last.end()) {
            EXPECT_GE(ev.at_op - it->second, cfg.min_sample_spacing);
        }
        last[ev.phase_id] = ev.at_op;
    }
}

TEST(Pgss, SpreadingOffSamplesEveryPeriodUntilConverged)
{
    PgssConfig spread = testConfig();
    PgssConfig packed = testConfig();
    packed.min_sample_spacing = 0;
    auto built = test::twoPhaseWorkload(400'000.0, 3);

    sim::SimulationEngine e1(built.program);
    sim::SimulationEngine e2(built.program);
    const PgssResult with = PgssController(spread).run(e1);
    const PgssResult without = PgssController(packed).run(e2);
    // Without spreading, unconverged phases sample back-to-back, so
    // at least as many samples are taken.
    EXPECT_GE(without.n_samples, with.n_samples);
}

TEST(Pgss, EachSampleCostsOneUnit)
{
    // The paper's sample: 3,000 detailed warm-up ops, then a 1,000-op
    // measured window, and nothing else in detail.
    auto built = test::twoPhaseWorkload(250'000.0, 3);
    sim::SimulationEngine engine(built.program);
    const PgssResult r = PgssController(testConfig()).run(engine);
    ASSERT_GT(r.n_samples, 0u);
    EXPECT_EQ(r.detailed_ops, r.n_samples * 4'000);
    EXPECT_EQ(r.mode_ops.detailed_warm, r.n_samples * 3'000);
    EXPECT_EQ(r.mode_ops.detailed_measure, r.n_samples * 1'000);
}

TEST(Pgss, DeterministicAcrossRuns)
{
    auto built = test::twoPhaseWorkload(250'000.0, 3);
    sim::SimulationEngine e1(built.program);
    sim::SimulationEngine e2(built.program);
    PgssController ctl(testConfig());
    const PgssResult a = ctl.run(e1);
    const PgssResult b = ctl.run(e2);
    EXPECT_EQ(a.est_ipc, b.est_ipc);
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_EQ(a.n_phases, b.n_phases);
    EXPECT_EQ(a.detailed_ops, b.detailed_ops);
}

TEST(Pgss, PhaseSummariesConsistent)
{
    auto built = test::twoPhaseWorkload(250'000.0, 3);
    sim::SimulationEngine engine(built.program);
    const PgssResult r = PgssController(testConfig()).run(engine);
    std::uint64_t ops = 0, samples = 0;
    for (const core::PhaseSummary &p : r.phases) {
        ops += p.ops;
        samples += p.samples;
    }
    EXPECT_EQ(samples, r.n_samples);
    // Phase-attributed ops account for nearly the whole program (the
    // tail after the last harvest is unattributed).
    EXPECT_GT(ops, r.total_ops - 2 * testConfig().bbv_period);
    EXPECT_LE(ops, r.total_ops);
}

TEST(Pgss, TimelineRecordsEverySample)
{
    auto built = test::twoPhaseWorkload(200'000.0, 2);
    sim::SimulationEngine engine(built.program);
    const PgssResult r = PgssController(testConfig()).run(engine);
    ASSERT_GT(r.n_samples, 0u);
    EXPECT_EQ(r.timeline.size(), r.n_samples);
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(r.timeline[i].at_op, r.timeline[i - 1].at_op);
        }
        EXPECT_LT(r.timeline[i].phase_id, r.n_phases);
    }
}

TEST(Pgss, JitterDisabledStillWorks)
{
    PgssConfig cfg = testConfig();
    cfg.jitter_samples = false;
    auto built = test::twoPhaseWorkload(250'000.0, 3);
    sim::SimulationEngine engine(built.program);
    const PgssResult r = PgssController(cfg).run(engine);
    EXPECT_GT(r.n_samples, 0u);
    EXPECT_GT(r.est_ipc, 0.0);
}

TEST(PgssDeathTest, BadConfigPanics)
{
    PgssConfig zero;
    zero.bbv_period = 0;
    EXPECT_DEATH(PgssController c(zero), "bbv_period");

    PgssConfig cramped;
    cramped.bbv_period = 3'999; // one op short of a 4,000-op sample
    EXPECT_DEATH(PgssController c(cramped), "does not fit");
}
