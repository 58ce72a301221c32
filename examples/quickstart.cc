/**
 * @file
 * Quickstart: build a synthetic workload, run PGSS-Sim on it, and
 * compare the estimate against a full detailed simulation. This is
 * the smallest complete use of the library:
 *
 *   1. workload::buildWorkload() -> a runnable program
 *   2. analysis::buildIntervalProfile() -> ground truth (optional;
 *      only needed to score the estimate)
 *   3. core::PgssController::run() over a sim::SimulationEngine
 *
 * Usage: quickstart [workload] [scale]
 *   workload: suite name (default 164.gzip), e.g. "181.mcf" or "mcf"
 *   scale: dynamic-length multiplier (default 0.1 for a fast demo)
 */

#include <cmath>
#include <cstdio>
#include <optional>

#include "analysis/interval_profile.hh"
#include "core/pgss_controller.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "sim/engine.hh"
#include "util/env.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace pgss;

    // --stats-json=<path> / --profile-out=<path> (and the other obs
    // flags) are stripped here so the positional arguments below keep
    // working.
    obs::initFromCli(argc, argv, "quickstart");

    const std::string name = argc > 1 ? argv[1] : "164.gzip";
    const std::optional<double> scale =
        argc > 2 ? util::parseDouble(argv[2]) : 0.1;
    if (!scale) {
        std::fprintf(stderr, "usage: quickstart [workload] [scale]\n");
        return 2;
    }

    // 1. Build the workload: a real program for the simulated RISC
    //    machine, with phase structure scripted per DESIGN.md.
    const workload::BuiltWorkload built =
        workload::buildWorkload(name, *scale);
    std::printf("workload %s: %zu static instructions, ~%.1fM "
                "dynamic ops, %.1f MiB data\n",
                built.program.name.c_str(), built.program.size(),
                built.estimated_ops / 1e6,
                built.program.data_bytes / 1048576.0);

    // 2. Ground truth: a full detailed simulation (this is the slow
    //    thing sampled simulation exists to avoid).
    const analysis::IntervalProfile profile =
        analysis::buildIntervalProfile(built.program);
    std::printf("ground truth: %.3f IPC over %llu cycles\n",
                profile.trueIpc(),
                static_cast<unsigned long long>(
                    profile.totalCycles()));

    // 3. PGSS-Sim with the paper's parameters: 100k-op BBV periods,
    //    0.05*pi threshold, 3k+1k detailed sample windows.
    core::PgssConfig config;
    sim::SimulationEngine engine(built.program);
    core::PgssController controller(config);
    engine.registerStats(obs::registry().root());
    controller.registerStats(obs::registry().root());
    obs::setReportMeta("workload", built.program.name);
    obs::setReportMeta("workload_scale", *scale);
    const core::PgssResult result = controller.run(engine);

    std::printf("\nPGSS-Sim estimate: %.3f IPC (error %.2f%%)\n",
                result.est_ipc,
                100.0 * std::abs(result.est_ipc - profile.trueIpc()) /
                    profile.trueIpc());
    std::printf("  phases discovered: %llu (%llu transitions)\n",
                static_cast<unsigned long long>(result.n_phases),
                static_cast<unsigned long long>(
                    result.n_phase_changes));
    std::printf("  detailed simulation: %llu ops in %llu samples "
                "(%.3f%% of the program)\n",
                static_cast<unsigned long long>(result.detailed_ops),
                static_cast<unsigned long long>(result.n_samples),
                100.0 * static_cast<double>(result.detailed_ops) /
                    static_cast<double>(result.total_ops));

    std::printf("\nper-phase profile:\n");
    std::printf("  %5s %10s %9s %10s %8s\n", "phase", "periods",
                "samples", "mean CPI", "CoV");
    for (const core::PhaseSummary &p : result.phases) {
        std::printf("  %5u %10llu %9llu %10.3f %7.1f%%\n", p.id,
                    static_cast<unsigned long long>(p.member_periods),
                    static_cast<unsigned long long>(p.samples),
                    p.mean_cpi, 100.0 * p.cpi_cov);
    }
    obs::finalize();
    return 0;
}
