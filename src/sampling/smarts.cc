#include "sampling/smarts.hh"

#include <cmath>

#include "obs/spans.hh"
#include "obs/timeline.hh"
#include "stats/confidence.hh"
#include "stats/running_stats.hh"

namespace pgss::sampling
{

SmartsRun
runSmarts(sim::SimulationEngine &engine, const SmartsConfig &config)
{
    PGSS_SPAN("sampling.smarts", Bench);
    SmartsRun run;
    run.result.technique = "SMARTS";

    // SMARTS never stops early, but its convergence curve (the CI of
    // the single stratum closing at the TurboSMARTS 3%-at-99.7%
    // target) is what live-sampling diagnostics plot; record it when
    // timelines are on.
    obs::TimelineRecorder *tl = obs::timelines();
    const obs::TimelineHandle tl_run =
        tl ? tl->beginRun("smarts") : obs::TimelineHandle{};
    constexpr double kConfidence = 0.997;
    constexpr double kRelError = 0.03;

    stats::RunningStats cpi;
    while (!engine.halted()) {
        const sim::RunResult ff = engine.run(
            config.ff_period, sim::SimMode::FunctionalWarm);
        if (ff.ops == 0 || engine.halted())
            break;
        engine.run(config.detailed_warmup, sim::SimMode::DetailedWarm);
        const sim::RunResult meas = engine.run(
            config.detailed_sample, sim::SimMode::DetailedMeasure);
        if (meas.ops == 0)
            break;
        const double sample_cpi = static_cast<double>(meas.cycles) /
                                  static_cast<double>(meas.ops);
        cpi.add(sample_cpi);
        run.sample_cpis.push_back(sample_cpi);
        if (tl) {
            const double mean = cpi.mean();
            const double hw = stats::ciHalfWidth(cpi, kConfidence);
            const double rel =
                mean != 0.0 ? hw / std::abs(mean) : hw;
            tl->recordConvergence(tl_run, 0, engine.totalOps(),
                                  cpi.count(), mean, rel,
                                  cpi.count() >= 2 &&
                                      rel <= kRelError);
        }
    }

    run.result.est_cpi = cpi.mean();
    run.result.est_ipc =
        run.result.est_cpi > 0.0 ? 1.0 / run.result.est_cpi : 0.0;
    run.result.n_samples = cpi.count();
    run.result.detailed_ops = engine.modeOps().detailed();
    run.result.functional_ops = engine.modeOps().functional_warm +
                                engine.modeOps().functional_fast;
    return run;
}

} // namespace pgss::sampling
