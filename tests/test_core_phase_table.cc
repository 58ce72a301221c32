/** @file Tests for the phase table and matching policy. */

#include <cmath>

#include <gtest/gtest.h>

#include "bbv/bbv_math.hh"
#include "core/phase_table.hh"

using namespace pgss::core;

namespace
{

/** Unit vector in a 4-d space along axis @p axis, tilted by t. */
std::vector<double>
unit(int axis, double tilt = 0.0)
{
    std::vector<double> v(4, 0.0);
    v[axis] = 1.0;
    v[(axis + 1) % 4] = tilt;
    pgss::bbv::normalizeL2(v);
    return v;
}

constexpr double thresh = 0.1 * M_PI;

} // namespace

TEST(PhaseTable, FirstVectorCreatesPhaseZero)
{
    PhaseTable t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.classify(unit(0), thresh), 0u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(PhaseTable, SimilarVectorStaysInPhase)
{
    PhaseTable t;
    t.classify(unit(0), thresh);
    EXPECT_EQ(t.classify(unit(0, 0.05), thresh), 0u);
    EXPECT_EQ(t.size(), 1u);
    // The member moved the centroid toward itself.
    EXPECT_GT(t.phase(0).centroid()[1], 0.0);
}

TEST(PhaseTable, OrthogonalVectorCreatesNewPhase)
{
    PhaseTable t;
    t.classify(unit(0), thresh);
    EXPECT_EQ(t.classify(unit(1), thresh), 1u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(PhaseTable, ReturningToKnownPhaseMatchesIt)
{
    PhaseTable t;
    t.classify(unit(0), thresh);
    t.classify(unit(1), thresh);
    EXPECT_EQ(t.classify(unit(0, 0.02), thresh), 0u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(PhaseTable, NearestPhaseWinsOnFullScan)
{
    PhaseTable t;
    t.classify(unit(0), thresh);
    t.classify(unit(1), thresh);
    // Tilted mostly toward axis 1.
    std::vector<double> v(4, 0.0);
    v[1] = 1.0;
    v[0] = 0.15;
    pgss::bbv::normalizeL2(v);
    EXPECT_EQ(t.classify(v, thresh), 1u);
}

TEST(PhaseTable, ThresholdControlsGranularity)
{
    // The same tilted sequence yields more phases under a tighter
    // threshold.
    auto count_phases = [](double th) {
        PhaseTable t;
        for (int i = 0; i < 8; ++i)
            t.classify(unit(0, 0.12 * i), th);
        return t.size();
    };
    EXPECT_GT(count_phases(0.02 * M_PI), count_phases(0.3 * M_PI));
}

TEST(PhaseTable, CentroidTracksMembers)
{
    PhaseTable t;
    t.classify(unit(0), thresh);
    t.classify(unit(0, 0.1), thresh);
    t.classify(unit(0, 0.1), thresh);
    const auto &c = t.phase(0).centroid();
    // Centroid lies between the members and stays unit-norm.
    double norm2 = 0;
    for (double x : c)
        norm2 += x * x;
    EXPECT_NEAR(norm2, 1.0, 1e-9);
    EXPECT_GT(c[1], 0.0);
    EXPECT_LT(c[1], 0.1);
}

TEST(PhaseTable, CompareLastFirstSkipsFullScan)
{
    // With compare-last-first, a vector within threshold of the
    // current phase stays there even if another phase is nearer.
    PhaseTable with(true), without(false);
    const double wide = 0.45 * M_PI;
    // Phase 0 at axis 0; phase 1 nearby (created under a tight
    // threshold to force separation).
    for (PhaseTable *t : {&with, &without}) {
        t->classify(unit(0), 0.05 * M_PI);
        t->classify(unit(0, 0.6), 0.05 * M_PI); // phase 1
        t->classify(unit(0), 0.05 * M_PI);      // back to phase 0
    }
    // Now classify a vector closer to phase 1 but still within the
    // wide threshold of phase 0 (the current phase).
    const auto v = unit(0, 0.5);
    EXPECT_EQ(with.classify(v, wide), 0u);
    EXPECT_EQ(without.classify(v, wide), 1u);
}

TEST(PhaseTable, ManyPhasesStableIds)
{
    PhaseTable t;
    for (int axis = 0; axis < 4; ++axis)
        EXPECT_EQ(t.classify(unit(axis), thresh),
                  static_cast<std::uint32_t>(axis));
    // Revisit in reverse order: ids stable.
    for (int axis = 3; axis >= 0; --axis)
        EXPECT_EQ(t.classify(unit(axis), thresh),
                  static_cast<std::uint32_t>(axis));
    EXPECT_EQ(t.size(), 4u);
}

TEST(Phase, SampleBookkeeping)
{
    Phase p(0, unit(0));
    EXPECT_EQ(p.sampleCount(), 0u);
    p.addSample(1.5, 1000);
    p.addSample(1.7, 2000);
    EXPECT_EQ(p.sampleCount(), 2u);
    EXPECT_EQ(p.lastSampleOp(), 2000u);
    EXPECT_NEAR(p.cpi().mean(), 1.6, 1e-12);
}
