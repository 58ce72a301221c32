/**
 * @file
 * The SMARTS baseline (Wunderlich et al., ISCA 2003): systematic
 * sampling with functional warming. Every sampling unit consists of a
 * long functionally-warmed fast-forward and then the engine's
 * detailed sample (a short detailed warm-up of transient structures
 * and a tiny measured window, sim::SimulationEngine::takeSample());
 * the estimate is the mean over all measured windows.
 */

#ifndef PGSS_SAMPLING_SMARTS_HH
#define PGSS_SAMPLING_SMARTS_HH

#include <cstdint>
#include <vector>

#include "sampling/sampler.hh"
#include "sim/engine.hh"

namespace pgss::sampling
{

/**
 * SMARTS parameters (the paper's value as default). The sample itself
 * is the engine's fixed unit (sim::kSampleOps).
 */
struct SmartsConfig
{
    std::uint64_t ff_period = 1'000'000; ///< functional warming gap
};

/** SMARTS output: the estimate plus every per-sample observation. */
struct SmartsRun
{
    SamplerResult result;

    /**
     * CPI of each measured window in position order — the candidate
     * population TurboSMARTS draws from.
     */
    std::vector<double> sample_cpis;
};

/** Run SMARTS over a fresh engine to completion. */
SmartsRun runSmarts(sim::SimulationEngine &engine,
                    const SmartsConfig &config = {});

} // namespace pgss::sampling

#endif // PGSS_SAMPLING_SMARTS_HH
