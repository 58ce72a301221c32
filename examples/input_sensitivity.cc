/**
 * @file
 * Input sensitivity: the paper's Section-2.1 critique of offline
 * SimPoint is that "BBV data collection and clustering analysis must
 * be repeated for each version of a program as well as each input
 * variation". This example makes that concrete:
 *
 *   1. run offline SimPoint on input 0 of a workload — accurate;
 *   2. naively reuse input 0's simulation points (interval indices
 *      and weights) on input 1 — the phase structure has shifted and
 *      the estimate degrades;
 *   3. run PGSS on both inputs — its online phase tracking needs no
 *      per-input analysis and stays accurate.
 *
 * Usage: input_sensitivity [workload] [scale]
 *   defaults: 164.gzip 0.1
 */

#include <cmath>
#include <cstdio>
#include <optional>

#include "analysis/interval_profile.hh"
#include "core/pgss_controller.hh"
#include "obs/report.hh"
#include "sampling/simpoint_sampler.hh"
#include "util/env.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace pgss;
    obs::initFromCli(argc, argv, "input_sensitivity");

    const std::string name = argc > 1 ? argv[1] : "164.gzip";
    const std::optional<double> scale =
        argc > 2 ? util::parseDouble(argv[2]) : 0.1;
    if (!scale) {
        std::fprintf(stderr, "usage: input_sensitivity [workload] [scale]\n");
        return 2;
    }
    constexpr std::uint64_t interval = 1'000'000;
    constexpr std::uint32_t clusters = 10;

    // Build both inputs and their ground truths.
    const workload::BuiltWorkload in0 =
        workload::buildWorkload(name, *scale, 0);
    const workload::BuiltWorkload in1 =
        workload::buildWorkload(name, *scale, 1);
    const analysis::IntervalProfile prof0 =
        analysis::buildIntervalProfile(in0.program);
    const analysis::IntervalProfile prof1 =
        analysis::buildIntervalProfile(in1.program);
    std::printf("%s: input 0 true IPC %.3f | input 1 true IPC %.3f\n",
                name.c_str(), prof0.trueIpc(), prof1.trueIpc());

    auto err = [](double est, double truth) {
        return 100.0 * std::abs(est - truth) / truth;
    };

    // 1. SimPoint analysed on, and applied to, input 0.
    sampling::SimPointConfig cfg;
    cfg.interval_ops = interval;
    cfg.clusters = clusters;
    const sampling::SimPointRun sp0 =
        sampling::runSimPoint(in0.program, {}, cfg, prof0);
    std::printf("\nSimPoint analysed on input 0, applied to input 0: "
                "error %.2f%%\n",
                err(sp0.result.est_ipc, prof0.trueIpc()));

    // 2. Naive reuse: the same simulation points (positions and
    //    weights) priced on input 1's execution.
    const std::size_t factor = interval / prof1.intervalOps();
    const std::size_t avail = prof1.intervals() / factor;
    double reused_cpi = 0.0;
    double reused_weight = 0.0;
    for (std::size_t c = 0; c < sp0.selection.rep_intervals.size();
         ++c) {
        std::size_t rep = sp0.selection.rep_intervals[c];
        if (rep >= avail)
            rep = avail - 1; // input 1 is shorter here
        reused_cpi += sp0.selection.weights[c] *
                      prof1.windowCpi(rep * factor, factor);
        reused_weight += sp0.selection.weights[c];
    }
    reused_cpi /= reused_weight;
    std::printf("input 0's points naively reused on input 1:        "
                "error %.2f%%\n",
                err(1.0 / reused_cpi, prof1.trueIpc()));

    // 3. Re-analysing input 1 from scratch (what SimPoint requires).
    const sampling::SimPointRun sp1 =
        sampling::runSimPoint(in1.program, {}, cfg, prof1);
    std::printf("SimPoint re-analysed on input 1 (fresh BBV pass + "
                "clustering): error %.2f%%\n",
                err(sp1.result.est_ipc, prof1.trueIpc()));

    // 4. PGSS needs no offline analysis on either input.
    for (int input = 0; input < 2; ++input) {
        const workload::BuiltWorkload &b = input == 0 ? in0 : in1;
        const analysis::IntervalProfile &p =
            input == 0 ? prof0 : prof1;
        core::PgssConfig pgss_cfg;
        pgss_cfg.bbv_period = 1'000'000;
        sim::SimulationEngine engine(b.program);
        const core::PgssResult r =
            core::PgssController(pgss_cfg).run(engine);
        std::printf("PGSS, online, input %d:                         "
                    "    error %.2f%% (%llu phases found at run "
                    "time)\n",
                    input, err(r.est_ipc, p.trueIpc()),
                    static_cast<unsigned long long>(r.n_phases));
    }

    std::printf("\nthe offline analysis is input-specific; online "
                "phase tracking is not —\nthe paper's motivation for "
                "run-time BBV tracking (Section 2.1).\n");
    obs::finalize();
    return 0;
}
