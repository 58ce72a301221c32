/**
 * @file
 * Phase explorer: visualise a workload's phase behaviour the way the
 * PGSS hardware would see it. Builds a ground-truth profile, runs
 * the online phase classifier over the BBV sequence at a chosen
 * threshold, and prints a timeline (one glyph per interval) plus a
 * per-phase summary.
 *
 * Usage: phase_explorer [workload] [threshold/pi] [scale]
 *   defaults: 179.art 0.05 0.1 — art's fine-grained oscillation and
 *   scan phases make a good show.
 */

#include <cmath>
#include <cstdio>
#include <optional>

#include "analysis/phase_sequence.hh"
#include "obs/report.hh"
#include "stats/running_stats.hh"
#include "util/env.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace pgss;
    obs::initFromCli(argc, argv, "phase_explorer");

    const std::string name = argc > 1 ? argv[1] : "179.art";
    const std::optional<double> threshold_pi =
        argc > 2 ? util::parseDouble(argv[2]) : 0.05;
    const std::optional<double> scale =
        argc > 3 ? util::parseDouble(argv[3]) : 0.1;
    if (!threshold_pi || !scale) {
        std::fprintf(stderr, "usage: phase_explorer [workload] "
                             "[threshold/pi] [scale]\n");
        return 2;
    }
    const double threshold = *threshold_pi * M_PI;

    const workload::BuiltWorkload built =
        workload::buildWorkload(name, *scale);
    const analysis::IntervalProfile profile =
        analysis::buildIntervalProfile(built.program);
    const analysis::PhaseSequence seq =
        analysis::classifyProfile(profile, threshold);

    std::printf("%s at threshold %.3f pi: %u phases, %llu "
                "transitions over %zu intervals of %llu ops\n\n",
                built.program.name.c_str(), threshold / M_PI,
                seq.n_phases,
                static_cast<unsigned long long>(seq.n_changes),
                profile.intervals(),
                static_cast<unsigned long long>(
                    profile.intervalOps()));

    // Timeline: 0-9 then a-z then '#' for phase ids.
    auto glyph = [](std::uint32_t phase) {
        if (phase < 10)
            return static_cast<char>('0' + phase);
        if (phase < 36)
            return static_cast<char>('a' + phase - 10);
        return '#';
    };
    std::printf("timeline (each glyph = one %llu-op interval):\n",
                static_cast<unsigned long long>(
                    profile.intervalOps()));
    for (std::size_t i = 0; i < seq.assignment.size(); ++i) {
        if (i % 80 == 0)
            std::printf("\n%8.1fM  ",
                        static_cast<double>(i) *
                            profile.intervalOps() / 1e6);
        std::putchar(glyph(seq.assignment[i]));
    }
    std::printf("\n\nper-phase summary:\n");
    std::printf("  %5s %10s %10s %10s %10s\n", "phase", "intervals",
                "share", "mean IPC", "IPC sigma");

    std::vector<stats::RunningStats> per_phase(seq.n_phases);
    for (std::size_t i = 0; i < profile.intervals(); ++i)
        per_phase[seq.assignment[i]].add(profile.intervalIpc(i));
    for (std::uint32_t p = 0; p < seq.n_phases; ++p) {
        std::printf("  %5u %10llu %9.1f%% %10.3f %10.4f\n", p,
                    static_cast<unsigned long long>(
                        seq.occupancy[p]),
                    100.0 * static_cast<double>(seq.occupancy[p]) /
                        static_cast<double>(profile.intervals()),
                    per_phase[p].mean(), per_phase[p].stddev());
    }

    std::printf("\noverall: true IPC %.3f, interval sigma %.4f\n",
                profile.trueIpc(), profile.ipcStats().stddev());
    obs::finalize();
    return 0;
}
