#include "sampling/simpoint_sampler.hh"

#include "obs/spans.hh"
#include "util/logging.hh"

namespace pgss::sampling
{

std::vector<bbv::SparseBbv>
collectIntervalBbvs(const isa::Program &program,
                    const sim::EngineConfig &engine_config,
                    std::uint64_t interval_ops,
                    std::uint64_t &functional_ops)
{
    PGSS_SPAN("sampling.collect_bbvs", Bench);
    sim::SimulationEngine engine(program, engine_config);
    engine.setFullBbvEnabled(true);
    std::vector<bbv::SparseBbv> interval_bbvs;
    while (!engine.halted()) {
        const sim::RunResult r =
            engine.run(interval_ops, sim::SimMode::FunctionalFast);
        if (r.ops == 0)
            break;
        if (r.ops == interval_ops)
            interval_bbvs.push_back(engine.harvestFullBbv());
    }
    functional_ops = engine.modeOps().functional_fast;
    return interval_bbvs;
}

SimPointRun
runSimPointOnBbvs(const std::vector<bbv::SparseBbv> &interval_bbvs,
                  const SimPointConfig &config,
                  const analysis::IntervalProfile &profile,
                  std::uint64_t functional_ops)
{
    util::panicIf(config.interval_ops % profile.intervalOps() != 0,
                  "SimPoint interval must be a multiple of the "
                  "profile granularity");
    const std::size_t factor =
        config.interval_ops / profile.intervalOps();

    SimPointRun run;
    run.result.technique = "SimPoint";
    run.result.functional_ops = functional_ops;
    if (interval_bbvs.empty())
        return run;

    run.selection =
        cluster::selectSimPoints(interval_bbvs, config.clusters);

    // Weighted sum of the representatives' performance.
    double est_cpi = 0.0;
    for (std::size_t c = 0; c < run.selection.rep_intervals.size();
         ++c) {
        const std::size_t start =
            run.selection.rep_intervals[c] * factor;
        est_cpi += run.selection.weights[c] *
                   profile.windowCpi(start, factor);
    }

    run.result.est_cpi = est_cpi;
    run.result.est_ipc = est_cpi > 0.0 ? 1.0 / est_cpi : 0.0;
    run.result.n_samples = run.selection.rep_intervals.size();
    run.result.detailed_ops =
        run.selection.rep_intervals.size() * config.interval_ops;
    return run;
}

SimPointRun
runSimPoint(const isa::Program &program,
            const sim::EngineConfig &engine_config,
            const SimPointConfig &config,
            const analysis::IntervalProfile &profile)
{
    util::panicIf(config.interval_ops % profile.intervalOps() != 0,
                  "SimPoint interval must be a multiple of the "
                  "profile granularity");
    std::uint64_t functional_ops = 0;
    const auto interval_bbvs = collectIntervalBbvs(
        program, engine_config, config.interval_ops, functional_ops);
    return runSimPointOnBbvs(interval_bbvs, config, profile,
                             functional_ops);
}

} // namespace pgss::sampling
