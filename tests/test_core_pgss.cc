/** @file End-to-end tests for the PGSS-Sim controller. */

#include <cctype>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/interval_profile.hh"
#include "bbv/bbv_math.hh"
#include "core/pgss_controller.hh"
#include "stats/running_stats.hh"
#include "tests/helpers.hh"
#include "workload/suite.hh"

using namespace pgss;
using core::PeriodRecord;
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
    ASSERT_GT(r.n_samples, 2u);
    // Consecutive samples within one phase respect the spacing, which
    // the controller measures between the ends of sampled periods.
    std::map<std::uint32_t, std::uint64_t> last;
    for (const PeriodRecord &p : r.periods) {
        if (!p.sampled)
            continue;
        const std::uint64_t end = p.start_op + p.ops;
        auto it = last.find(p.phase_id);
        if (it != last.end()) {
            EXPECT_GE(end - it->second, cfg.min_sample_spacing);
        }
        last[p.phase_id] = end;
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
    ASSERT_EQ(r.phases.size(), r.n_phases);
    std::uint64_t ops = 0, samples = 0, periods = 0;
    for (const core::PhaseSummary &p : r.phases) {
        ops += p.ops;
        samples += p.samples;
        periods += p.member_periods;
    }
    // Every period, ops included, belongs to exactly one phase.
    EXPECT_EQ(samples, r.n_samples);
    EXPECT_EQ(ops, r.total_ops);
    EXPECT_EQ(periods, r.periods.size());
}

TEST(Pgss, TimelineRecordsEverySample)
{
    auto built = test::twoPhaseWorkload(200'000.0, 2);
    sim::SimulationEngine engine(built.program);
    const PgssResult r = PgssController(testConfig()).run(engine);
    ASSERT_GT(r.n_samples, 0u);
    std::uint64_t sampled = 0;
    for (std::size_t i = 0; i < r.periods.size(); ++i) {
        sampled += r.periods[i].sampled;
        if (i > 0) {
            EXPECT_GT(r.periods[i].start_op, r.periods[i - 1].start_op);
        }
        EXPECT_LT(r.periods[i].phase_id, r.n_phases);
    }
    EXPECT_EQ(sampled, r.n_samples);
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

// ---- The estimate as a function of the period log.

namespace
{

/** A hand-built period of @p ops in @p phase; a @p cpi > 0 samples it. */
PeriodRecord
period(std::uint32_t phase, std::uint64_t ops, double cpi = 0.0)
{
    PeriodRecord p;
    p.phase_id = phase;
    p.ops = ops;
    p.sampled = cpi > 0.0;
    p.cpi = cpi;
    return p;
}

/** estimateCpi() of a hand-built log, one phase per centroid. */
double
estimate(const std::vector<PeriodRecord> &log,
         const std::vector<std::vector<double>> &centroids)
{
    return core::estimateCpi(
        core::summarizePhases(log, centroids.size()), centroids);
}

/** The unit vector at @p degrees in the plane. */
std::vector<double>
dir(double degrees)
{
    const double rad = degrees * M_PI / 180.0;
    return {std::cos(rad), std::sin(rad)};
}

} // namespace

TEST(EstimateCpi, WeightsPhaseMeansByOps)
{
    // Phase 0: one 400-op period sampled at 4.0. Phase 1: three
    // 100-op periods, two sampled (mean 2.0). Weighting by periods
    // would give 2.5 and by samples 8/3; by ops it is 22/7.
    const std::vector<PeriodRecord> log = {
        period(0, 400, 4.0), period(1, 100, 1.0), period(1, 100),
        period(1, 100, 3.0)};
    const std::vector<core::PhaseSummary> phases =
        core::summarizePhases(log, 2);
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[1].id, 1u);
    EXPECT_EQ(phases[1].member_periods, 3u);
    EXPECT_EQ(phases[1].ops, 300u);
    EXPECT_EQ(phases[1].samples, 2u);
    EXPECT_DOUBLE_EQ(phases[1].mean_cpi, 2.0);
    EXPECT_DOUBLE_EQ(estimate(log, {dir(0), dir(90)}), 2200.0 / 700.0);
}

TEST(EstimateCpi, UnsampledPhasesDonateToTheNearestSampledCentroid)
{
    // Phases 0 (CPI 1) and 1 (CPI 3) are sampled. Unsampled phase 2
    // lies nearest phase 1 and phase 3 nearest phase 0, so the
    // weights become 100 + 100 and 100 + 200: 2.2. Donating to the
    // farthest centroid gives 1.8, and dropping the unsampled
    // phases 2.0.
    const std::vector<PeriodRecord> log = {
        period(0, 100, 1.0), period(1, 100, 3.0), period(2, 200),
        period(3, 100)};
    EXPECT_DOUBLE_EQ(
        estimate(log, {dir(0), dir(90), dir(80), dir(20)}),
        1100.0 / 500.0);
}

TEST(EstimateCpi, ZeroOpPhasesCarryNoWeight)
{
    // Phase 1 has a sample but no ops; phase 2 has no period at all.
    const std::vector<PeriodRecord> log = {period(0, 100, 2.0),
                                           period(1, 0, 9.0)};
    EXPECT_EQ(estimate(log, {dir(0), dir(90), dir(45)}), 2.0);
}

TEST(EstimateCpi, NothingSampledIsZero)
{
    EXPECT_EQ(estimate({period(0, 100), period(1, 100)},
                       {dir(0), dir(90)}),
              0.0);
    EXPECT_EQ(estimate({}, {}), 0.0);
}

namespace
{

/** One PGSS run of the log grid and the configuration it ran. */
struct GridRun
{
    PgssConfig cfg;
    PgssResult r;
};

/**
 * @p program at scale 0.02 under 100k and 1M periods, with samples
 * at the period start and jittered.
 */
std::vector<GridRun>
gridRuns(const std::string &program)
{
    const workload::BuiltWorkload built =
        workload::buildWorkload(program, 0.02);
    std::vector<GridRun> runs;
    for (std::uint64_t bbv_period : {100'000u, 1'000'000u}) {
        for (bool jitter : {false, true}) {
            PgssConfig cfg;
            cfg.bbv_period = bbv_period;
            cfg.jitter_samples = jitter;
            sim::SimulationEngine engine(built.program);
            runs.push_back({cfg, PgssController(cfg).run(engine)});
        }
    }
    return runs;
}

std::string
label(const PgssConfig &cfg)
{
    return "period " + std::to_string(cfg.bbv_period) +
           (cfg.jitter_samples ? ", jittered" : ", period start");
}

/**
 * The estimate restated from a run's log alone: each phase's ops and
 * sample mean, unsampled phases' ops moved to the sampled phase with
 * the nearest centroid (the first of equals), then the ops-weighted
 * mean of the sampled phases.
 */
double
restatedEstimate(const PgssResult &r)
{
    const std::size_t n = r.centroids.size();
    std::vector<std::uint64_t> ops(n, 0);
    std::vector<stats::RunningStats> cpi(n);
    for (const PeriodRecord &p : r.periods) {
        ops[p.phase_id] += p.ops;
        if (p.sampled)
            cpi[p.phase_id].add(p.cpi);
    }
    std::vector<double> weight(ops.begin(), ops.end());
    for (std::size_t from = 0; from < n; ++from) {
        if (cpi[from].count() > 0)
            continue;
        std::size_t to = n;
        double best = 0.0;
        for (std::size_t q = 0; q < n; ++q) {
            if (cpi[q].count() == 0)
                continue;
            const double a =
                bbv::angleBetweenUnit(r.centroids[from], r.centroids[q]);
            if (to == n || a < best) {
                to = q;
                best = a;
            }
        }
        if (to < n)
            weight[to] += weight[from];
    }
    double num = 0.0;
    double den = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
        if (cpi[p].count() == 0)
            continue;
        num += weight[p] * cpi[p].mean();
        den += weight[p];
    }
    return den > 0.0 ? num / den : 0.0;
}

class PgssLog : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(PgssLog, PeriodsCoverTheRunAndHoldTheirSamples)
{
    for (const GridRun &g : gridRuns(GetParam())) {
        SCOPED_TRACE(label(g.cfg));
        const PgssResult &r = g.r;
        ASSERT_FALSE(r.periods.empty());
        EXPECT_EQ(r.centroids.size(), r.n_phases);
        std::uint64_t next_op = 0, sampled = 0;
        bool any_offset = false;
        for (std::size_t i = 0; i < r.periods.size(); ++i) {
            const PeriodRecord &p = r.periods[i];
            EXPECT_EQ(p.start_op, next_op) << "period " << i;
            next_op += p.ops;
            if (i + 1 < r.periods.size()) {
                EXPECT_EQ(p.ops, g.cfg.bbv_period) << "period " << i;
            }
            EXPECT_LT(p.phase_id, r.n_phases);
            if (!p.sampled)
                continue;
            ++sampled;
            EXPECT_LE(p.sample_offset + sim::kSampleOps, p.ops)
                << "period " << i;
            if (!g.cfg.jitter_samples) {
                EXPECT_EQ(p.sample_offset, 0u) << "period " << i;
            }
            any_offset = any_offset || p.sample_offset > 0;
        }
        EXPECT_EQ(next_op, r.total_ops);
        EXPECT_EQ(sampled, r.n_samples);
        EXPECT_EQ(any_offset, g.cfg.jitter_samples);
    }
}

TEST_P(PgssLog, EstimateIsRestatedFromTheLogBitForBit)
{
    for (const GridRun &g : gridRuns(GetParam())) {
        SCOPED_TRACE(label(g.cfg));
        ASSERT_GT(g.r.n_samples, 0u);
        EXPECT_EQ(restatedEstimate(g.r), g.r.est_cpi);
        EXPECT_EQ(g.r.est_ipc, 1.0 / g.r.est_cpi);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PgssLog, ::testing::ValuesIn(workload::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });
