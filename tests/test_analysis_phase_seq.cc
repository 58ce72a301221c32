/** @file Tests for profile phase classification (Figure 10). */

#include <cmath>

#include <gtest/gtest.h>

#include "analysis/phase_sequence.hh"
#include "tests/helpers.hh"

using namespace pgss;
using namespace pgss::analysis;

namespace
{

const IntervalProfile &
profile()
{
    static IntervalProfile p = [] {
        auto built = test::twoPhaseWorkload(200'000.0, 3);
        return buildIntervalProfile(built.program, {}, 20'000);
    }();
    return p;
}

constexpr double mid_threshold = 0.1 * M_PI;

} // namespace

TEST(PhaseSeq, AssignmentCoversEveryInterval)
{
    const PhaseSequence s = classifyProfile(profile(), mid_threshold);
    EXPECT_EQ(s.assignment.size(), profile().intervals());
    for (std::uint32_t p : s.assignment)
        EXPECT_LT(p, s.n_phases);
}

TEST(PhaseSeq, OccupancySumsToIntervals)
{
    const PhaseSequence s = classifyProfile(profile(), mid_threshold);
    std::uint64_t total = 0;
    for (std::uint64_t o : s.occupancy)
        total += o;
    EXPECT_EQ(total, profile().intervals());
}

TEST(PhaseSeq, FirstIntervalsAreWherePhasesAppear)
{
    const PhaseSequence s = classifyProfile(profile(), mid_threshold);
    ASSERT_EQ(s.first_interval.size(), s.n_phases);
    for (std::uint32_t p = 0; p < s.n_phases; ++p)
        EXPECT_EQ(s.assignment[s.first_interval[p]], p);
    EXPECT_EQ(s.first_interval[0], 0u);
}

TEST(PhaseSeq, TwoPhaseWorkloadFindsFewPhases)
{
    const PhaseSequence s = classifyProfile(profile(), mid_threshold);
    EXPECT_GE(s.n_phases, 2u);
    EXPECT_LE(s.n_phases, 6u);
    EXPECT_GE(s.n_changes, 5u); // 3 rounds of A/B
}

TEST(PhaseSeq, DeterministicClassification)
{
    const PhaseSequence a = classifyProfile(profile(), mid_threshold);
    const PhaseSequence b = classifyProfile(profile(), mid_threshold);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(Characteristics, PhaseCountFallsWithThreshold)
{
    // Figure 10's headline: the number of detected phases drops
    // quickly as the threshold rises.
    std::uint32_t last = 0;
    bool first = true;
    for (double th : {0.01, 0.05, 0.125, 0.25, 0.49}) {
        const PhaseCharacteristics pc =
            phaseCharacteristics(profile(), th * M_PI);
        if (!first) {
            EXPECT_LE(pc.n_phases, last);
        }
        last = pc.n_phases;
        first = false;
    }
    EXPECT_EQ(last, 1u); // near pi/2 everything is one phase
}

TEST(Characteristics, IntervalLengthGrowsWithThreshold)
{
    const PhaseCharacteristics tight =
        phaseCharacteristics(profile(), 0.02 * M_PI);
    const PhaseCharacteristics loose =
        phaseCharacteristics(profile(), 0.45 * M_PI);
    EXPECT_GE(loose.avg_interval_ops, tight.avg_interval_ops);
}

TEST(Characteristics, WithinPhaseSigmaRisesTowardOne)
{
    // At pi/2 every interval is one phase: within-phase dispersion
    // equals the overall sigma exactly (population convention).
    const PhaseCharacteristics loose =
        phaseCharacteristics(profile(), 0.49 * M_PI);
    EXPECT_NEAR(loose.within_phase_sigma, 1.0, 0.05);

    const PhaseCharacteristics tight =
        phaseCharacteristics(profile(), 0.03 * M_PI);
    EXPECT_LT(tight.within_phase_sigma, loose.within_phase_sigma);
}

TEST(Characteristics, ChangesAndLengthConsistent)
{
    const PhaseCharacteristics pc =
        phaseCharacteristics(profile(), mid_threshold);
    const double total_ops = static_cast<double>(
        profile().intervals() * profile().intervalOps());
    EXPECT_NEAR(pc.avg_interval_ops * (pc.n_changes + 1), total_ops,
                1.0);
}
