#include "sampling/smarts.hh"

#include <cmath>

#include "obs/spans.hh"
#include "obs/timeline.hh"
#include "sampling/turbosmarts.hh"
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
    // the single stratum closing at the TurboSMARTS target) is what
    // live-sampling diagnostics plot; record it when timelines are on.
    obs::TimelineRecorder *tl = obs::timelines();
    const obs::TimelineHandle tl_run =
        tl ? tl->beginRun("smarts") : obs::TimelineHandle{};

    stats::RunningStats cpi;
    while (!engine.halted()) {
        const sim::RunResult ff = engine.run(
            config.ff_period, sim::SimMode::FunctionalWarm);
        if (ff.ops == 0 || engine.halted())
            break;
        const sim::SampleResult sample = engine.takeSample();
        if (sample.measured_ops == 0)
            break;
        cpi.add(sample.cpi);
        run.sample_cpis.push_back(sample.cpi);
        if (tl) {
            const double mean = cpi.mean();
            const double hw = stats::ciHalfWidth(cpi, kTurboConfidence);
            const double rel =
                mean != 0.0 ? hw / std::abs(mean) : hw;
            tl->recordConvergence(tl_run, 0, engine.totalOps(),
                                  cpi.count(), mean, rel,
                                  cpi.count() >= 2 &&
                                      rel <= kTurboRelativeError);
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
