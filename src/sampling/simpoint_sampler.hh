/**
 * @file
 * The offline SimPoint baseline: collect full BBVs for the whole run
 * at a fixed interval size (a functional pass — BBV collection needs
 * no timing), cluster them, and detail one representative interval
 * per cluster. The representative's performance is read from the
 * ground-truth profile, which is what a perfectly-warmed detailed
 * simulation of that interval would measure; the charged detailed-op
 * cost is cluster-count x interval-size, exactly how the paper counts
 * SimPoint's detailed simulation.
 */

#ifndef PGSS_SAMPLING_SIMPOINT_SAMPLER_HH
#define PGSS_SAMPLING_SIMPOINT_SAMPLER_HH

#include <cstdint>

#include "analysis/interval_profile.hh"
#include "cluster/simpoint.hh"
#include "sampling/sampler.hh"

namespace pgss::sampling
{

/**
 * Offline SimPoint parameters. The projection width and the seed are
 * constants of the selection (cluster::kProjectionDims,
 * cluster::kSimPointSeed).
 */
struct SimPointConfig
{
    std::uint64_t interval_ops = 10'000'000;
    std::uint32_t clusters = 10;
};

/** SimPoint output: estimate plus the chosen points. */
struct SimPointRun
{
    SamplerResult result;
    cluster::SimPointSelection selection;
};

/**
 * Run offline SimPoint for @p program.
 * @param profile ground truth at a granularity dividing
 *        config.interval_ops.
 */
SimPointRun runSimPoint(const isa::Program &program,
                        const sim::EngineConfig &engine_config,
                        const SimPointConfig &config,
                        const analysis::IntervalProfile &profile);

/**
 * The offline BBV-collection pass alone: one functional run of the
 * program recording a full BBV per @p interval_ops. The paper's
 * evaluation clusters the same collection at many (k, interval)
 * configurations, so collection is exposed separately.
 * @param[out] functional_ops instructions executed by the pass.
 */
std::vector<bbv::SparseBbv>
collectIntervalBbvs(const isa::Program &program,
                    const sim::EngineConfig &engine_config,
                    std::uint64_t interval_ops,
                    std::uint64_t &functional_ops);

/**
 * Cluster pre-collected interval BBVs and produce the SimPoint
 * estimate against @p profile.
 */
SimPointRun
runSimPointOnBbvs(const std::vector<bbv::SparseBbv> &interval_bbvs,
                  const SimPointConfig &config,
                  const analysis::IntervalProfile &profile,
                  std::uint64_t functional_ops);

} // namespace pgss::sampling

#endif // PGSS_SAMPLING_SIMPOINT_SAMPLER_HH
