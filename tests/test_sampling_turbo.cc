/** @file Tests for the TurboSMARTS baseline. */

#include <gtest/gtest.h>

#include "sampling/turbosmarts.hh"
#include "util/random.hh"

using namespace pgss::sampling;

namespace
{

/** Low-dispersion population around @p mean. */
std::vector<double>
tightPopulation(double mean, double rel_noise, std::size_t n,
                std::uint64_t seed)
{
    pgss::util::Rng rng(seed);
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(mean * (1.0 + rel_noise * rng.nextGaussian()));
    return xs;
}

} // namespace

TEST(Turbo, ConvergesEarlyOnTightPopulation)
{
    const auto pop = tightPopulation(2.0, 0.01, 2000, 5);
    const SamplerResult r = runTurboSmarts(pop);
    EXPECT_LT(r.n_samples, 100u); // far fewer than 2000
    EXPECT_GE(r.n_samples, 8u);   // min_samples floor
    EXPECT_NEAR(r.est_cpi, 2.0, 0.05);
}

TEST(Turbo, UsesEverythingOnWildPopulation)
{
    // Bimodal population: the CI rarely closes, so it processes
    // (nearly) all units.
    pgss::util::Rng rng(7);
    std::vector<double> pop;
    for (int i = 0; i < 300; ++i)
        pop.push_back(rng.nextBool(0.5) ? 0.5 : 5.0);
    const SamplerResult r = runTurboSmarts(pop);
    EXPECT_GT(r.n_samples, 250u);
}

TEST(Turbo, NeverExceedsPopulation)
{
    const auto pop = tightPopulation(1.0, 0.5, 50, 9);
    const SamplerResult r = runTurboSmarts(pop);
    EXPECT_LE(r.n_samples, 50u);
}

TEST(Turbo, DetailedOpsProportionalToDraws)
{
    const auto pop = tightPopulation(2.0, 0.01, 500, 11);
    const SamplerResult r = runTurboSmarts(pop);
    // The paper's 3,000 + 1,000-op sample per draw.
    EXPECT_EQ(r.detailed_ops, r.n_samples * 4'000);
    EXPECT_EQ(r.functional_ops, 0u); // live-points replace FF
}

TEST(Turbo, MinSamplesRespected)
{
    TurboSmartsConfig cfg;
    cfg.min_samples = 25;
    const auto pop = tightPopulation(1.0, 0.0001, 500, 13);
    const SamplerResult r = runTurboSmarts(pop, cfg);
    EXPECT_GE(r.n_samples, 25u);
}

TEST(Turbo, DeterministicForSeed)
{
    const auto pop = tightPopulation(1.5, 0.05, 400, 15);
    const SamplerResult a = runTurboSmarts(pop);
    const SamplerResult b = runTurboSmarts(pop);
    EXPECT_EQ(a.n_samples, b.n_samples);
    EXPECT_EQ(a.est_cpi, b.est_cpi);
}

TEST(Turbo, DifferentSeedDifferentDrawOrder)
{
    const auto pop = tightPopulation(1.5, 0.2, 400, 17);
    TurboSmartsConfig cfg;
    cfg.seed += 1;
    const SamplerResult a = runTurboSmarts(pop);
    const SamplerResult b = runTurboSmarts(pop, cfg);
    // Estimates may differ slightly because different units were
    // drawn before convergence.
    EXPECT_NE(a.est_cpi, b.est_cpi);
}

TEST(Turbo, EmptyPopulationSafe)
{
    const SamplerResult r = runTurboSmarts({});
    EXPECT_EQ(r.n_samples, 0u);
    EXPECT_EQ(r.est_ipc, 0.0);
}

TEST(Turbo, EstimateUnbiasedOverSeeds)
{
    // Averaged over many draw orders, the estimate matches the
    // population mean.
    const auto pop = tightPopulation(2.0, 0.10, 1000, 19);
    double pop_mean = 0;
    for (double x : pop)
        pop_mean += x;
    pop_mean /= pop.size();

    double est_mean = 0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t) {
        TurboSmartsConfig cfg;
        cfg.seed = 1000 + t;
        est_mean += runTurboSmarts(pop, cfg).est_cpi;
    }
    est_mean /= trials;
    EXPECT_NEAR(est_mean, pop_mean, 0.02 * pop_mean);
}
