/**
 * @file
 * Technique shootout: run every sampling technique in the library on
 * one workload and print accuracy versus detailed-simulation cost —
 * a one-workload miniature of the paper's Figure 12.
 *
 * Usage: technique_shootout [workload] [scale]
 *   defaults: 183.equake 0.1
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "analysis/interval_profile.hh"
#include "core/pgss_controller.hh"
#include "obs/report.hh"
#include "sampling/online_simpoint.hh"
#include "sampling/simpoint_sampler.hh"
#include "sampling/smarts.hh"
#include "sampling/turbosmarts.hh"
#include "util/env.hh"
#include "util/table.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace pgss;
    obs::initFromCli(argc, argv, "technique_shootout");

    const std::string name = argc > 1 ? argv[1] : "183.equake";
    const std::optional<double> scale =
        argc > 2 ? util::parseDouble(argv[2]) : 0.1;
    if (!scale) {
        std::fprintf(stderr, "usage: technique_shootout [workload] [scale]\n");
        return 2;
    }

    const workload::BuiltWorkload built =
        workload::buildWorkload(name, *scale);
    const analysis::IntervalProfile profile =
        analysis::buildIntervalProfile(built.program);
    const double true_ipc = profile.trueIpc();
    std::printf("%s: true IPC %.3f over %.1fM ops\n\n",
                built.program.name.c_str(), true_ipc,
                profile.totalOps() / 1e6);

    util::Table t;
    t.setHeader({"technique", "est IPC", "error", "samples",
                 "detailed ops", "share of program"});
    auto add = [&](const std::string &tech, double est_ipc,
                   std::uint64_t samples, std::uint64_t detailed) {
        t.addRow({tech, util::Table::fmt(est_ipc, 4),
                  util::Table::fmtPercent(
                      std::abs(est_ipc - true_ipc) / true_ipc, 2),
                  std::to_string(samples),
                  util::Table::fmtCount(detailed),
                  util::Table::fmtPercent(
                      static_cast<double>(detailed) /
                          static_cast<double>(profile.totalOps()),
                      3)});
    };

    // SMARTS and TurboSMARTS.
    sim::SimulationEngine smarts_engine(built.program);
    const sampling::SmartsRun smarts =
        sampling::runSmarts(smarts_engine);
    add("SMARTS", smarts.result.est_ipc, smarts.result.n_samples,
        smarts.result.detailed_ops);
    const sampling::SamplerResult turbo =
        sampling::runTurboSmarts(smarts.sample_cpis);
    add("TurboSMARTS", turbo.est_ipc, turbo.n_samples,
        turbo.detailed_ops);

    // Offline SimPoint (10 clusters of 1M ops).
    sampling::SimPointConfig sp_cfg;
    sp_cfg.interval_ops = 1'000'000;
    sp_cfg.clusters = 10;
    const sampling::SimPointRun sp =
        sampling::runSimPoint(built.program, {}, sp_cfg, profile);
    add("SimPoint(10x1M)", sp.result.est_ipc, sp.result.n_samples,
        sp.result.detailed_ops);

    // Online SimPoint (1M, 0.1 pi, perfect predictor).
    sampling::OnlineSimPointConfig ol_cfg;
    ol_cfg.interval_ops = 1'000'000;
    ol_cfg.threshold = 0.1 * M_PI;
    const sampling::SamplerResult ol =
        sampling::runOnlineSimPoint(profile, ol_cfg);
    add("OnlineSP(1M/.1)", ol.est_ipc, ol.n_samples,
        ol.detailed_ops);

    // PGSS at the paper's default and best-overall configurations.
    for (const auto &[label, period] :
         {std::pair<const char *, std::uint64_t>{"PGSS(100k/.05)",
                                                 100'000},
          std::pair<const char *, std::uint64_t>{"PGSS(1M/.05)",
                                                 1'000'000}}) {
        core::PgssConfig cfg;
        cfg.bbv_period = period;
        sim::SimulationEngine engine(built.program);
        const core::PgssResult r =
            core::PgssController(cfg).run(engine);
        add(label, r.est_ipc, r.n_samples, r.detailed_ops);
    }

    t.print(std::cout);
    std::printf("\nSMARTS/SimPoint should be the most accurate; "
                "PGSS should be close while\nspending the least "
                "detailed simulation.\n");
    obs::finalize();
    return 0;
}
