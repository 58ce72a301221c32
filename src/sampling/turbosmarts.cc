#include "sampling/turbosmarts.hh"

#include <numeric>

#include "sim/engine.hh"
#include "stats/confidence.hh"
#include "stats/running_stats.hh"
#include "util/random.hh"

namespace pgss::sampling
{

SamplerResult
runTurboSmarts(const std::vector<double> &sample_cpis,
               const TurboSmartsConfig &config)
{
    SamplerResult res;
    res.technique = "TurboSMARTS";
    if (sample_cpis.empty())
        return res;

    // Random processing order over the candidate units.
    std::vector<std::uint32_t> order(sample_cpis.size());
    std::iota(order.begin(), order.end(), 0u);
    util::Rng rng(config.seed);
    rng.shuffle(order);

    stats::RunningStats cpi;
    for (std::uint32_t idx : order) {
        cpi.add(sample_cpis[idx]);
        if (stats::withinConfidence(cpi, kTurboConfidence,
                                    config.relative_error,
                                    config.min_samples)) {
            break;
        }
    }

    res.est_cpi = cpi.mean();
    res.est_ipc = res.est_cpi > 0.0 ? 1.0 / res.est_cpi : 0.0;
    res.n_samples = cpi.count();
    res.detailed_ops = cpi.count() * sim::kSampleOps;
    res.functional_ops = 0; // live-points replace fast-forwarding
    return res;
}

} // namespace pgss::sampling
