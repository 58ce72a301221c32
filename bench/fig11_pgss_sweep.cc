/**
 * @file
 * Figure 11: PGSS-Sim sampling error for the ten workloads across
 * three BBV sampling periods (100k, 1M, 10M ops) and five thresholds
 * (0.05..0.25 pi), plus arithmetic and geometric means. The paper's
 * findings to reproduce: accuracy varies widely with the parameters;
 * art and mcf perform poorly at the shortest period (their 40-50k-op
 * micro-phases straddle sample boundaries); and 1M / 0.05 pi is the
 * best overall configuration.
 *
 * This bench runs PGSS live (functional-warming fast-forward with
 * online BBV tracking plus detailed sample windows) once per
 * configuration per workload: 150 full sampled simulations. The
 * headline grid uses the paper-faithful algorithm (the detailed
 * sample sits at the start of the period); a second, smaller grid
 * shows this library's jittered-placement refinement (DESIGN.md
 * sec. 6), which cures the period/micro-phase aliasing.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/support.hh"
#include "core/pgss_controller.hh"
#include "util/table.hh"

using namespace pgss;

namespace
{

const std::uint64_t periods[] = {100'000, 1'000'000, 10'000'000};
const double thresholds[] = {0.05, 0.10, 0.15, 0.20, 0.25};

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "fig11");
    bench::printHeader(
        "Figure 11 - PGSS sampling error vs BBV period and "
        "threshold",
        "Error is |est IPC - true IPC| / true IPC. 15 configurations "
        "x 10 workloads, all run live.");

    const std::vector<bench::Entry> suite = bench::loadSuite();

    // error[period][threshold][workload]
    double best_overall = 1e9;
    std::uint64_t best_period = 0;
    double best_threshold = 0;

    for (const std::uint64_t period : periods) {
        std::printf("\n-- %s-op BBV sample length --\n",
                    period == 100'000
                        ? "100k"
                        : (period == 1'000'000 ? "1M" : "10M"));
        util::Table t;
        std::vector<std::string> header = {"benchmark"};
        for (double th : thresholds)
            header.push_back(util::Table::fmt(th, 2));
        t.setHeader(header);

        // cell[workload][threshold], filled on the harness workers;
        // rows print serially below so output is PGSS_JOBS-invariant.
        std::vector<std::vector<double>> cell(
            suite.size(),
            std::vector<double>(std::size(thresholds), 0.0));
        bench::runEntriesParallel(suite.size(), [&](std::size_t b) {
            const bench::Entry &e = suite[b];
            for (std::size_t ti = 0; ti < std::size(thresholds);
                 ++ti) {
                core::PgssConfig cfg;
                cfg.bbv_period = period;
                cfg.threshold = thresholds[ti] * M_PI;
                cfg.jitter_samples = false; // paper-faithful
                sim::SimulationEngine engine(e.built.program,
                                             bench::benchConfig());
                const core::PgssResult r =
                    core::PgssController(cfg).run(engine);
                cell[b][ti] =
                    std::abs(r.est_ipc - e.profile.trueIpc()) /
                    e.profile.trueIpc();
            }
        });

        std::vector<std::vector<double>> errs(
            std::size(thresholds));
        for (std::size_t b = 0; b < suite.size(); ++b) {
            std::vector<std::string> row = {suite[b].short_name};
            for (std::size_t ti = 0; ti < std::size(thresholds);
                 ++ti) {
                errs[ti].push_back(cell[b][ti]);
                row.push_back(
                    util::Table::fmtPercent(cell[b][ti], 2));
            }
            t.addRow(row);
        }

        std::vector<std::string> amean = {"A-Mean"};
        std::vector<std::string> gmean = {"G-Mean"};
        for (std::size_t ti = 0; ti < std::size(thresholds); ++ti) {
            const double am = bench::mean(errs[ti]);
            const double gm = bench::geoMean(errs[ti]);
            amean.push_back(util::Table::fmtPercent(am, 2));
            gmean.push_back(util::Table::fmtPercent(gm, 2));
            if (am < best_overall) {
                best_overall = am;
                best_period = period;
                best_threshold = thresholds[ti];
            }
        }
        t.addRow(amean);
        t.addRow(gmean);
        t.print(std::cout);
    }

    std::printf("\nbest overall configuration by A-Mean error: "
                "%llu-op period, %.2f pi threshold (%.2f%%)\n",
                static_cast<unsigned long long>(best_period),
                best_threshold, 100.0 * best_overall);
    std::printf("paper's best overall: 1M-op period, 0.05 pi.\n");
    std::printf("expected shape: art/mcf poor at the 100k period "
                "(micro-phase aliasing),\nmid-size periods best "
                "overall, and accuracy degrading at loose "
                "thresholds.\n");

    // ---- Ablation: jittered sample placement (our refinement).
    std::printf("\n-- ablation: jittered sample placement, "
                "threshold 0.05 pi --\n");
    util::Table ab;
    ab.setHeader({"benchmark", "100k", "1M", "10M"});
    std::vector<std::vector<double>> ab_cell(
        suite.size(), std::vector<double>(std::size(periods), 0.0));
    bench::runEntriesParallel(suite.size(), [&](std::size_t b) {
        const bench::Entry &e = suite[b];
        for (std::size_t pi = 0; pi < std::size(periods); ++pi) {
            core::PgssConfig cfg;
            cfg.bbv_period = periods[pi];
            cfg.threshold = 0.05 * M_PI;
            cfg.jitter_samples = true;
            sim::SimulationEngine engine(e.built.program,
                                         bench::benchConfig());
            const core::PgssResult r =
                core::PgssController(cfg).run(engine);
            ab_cell[b][pi] =
                std::abs(r.est_ipc - e.profile.trueIpc()) /
                e.profile.trueIpc();
        }
    });
    std::vector<std::vector<double>> ab_errs(std::size(periods));
    for (std::size_t b = 0; b < suite.size(); ++b) {
        std::vector<std::string> row = {suite[b].short_name};
        for (std::size_t pi = 0; pi < std::size(periods); ++pi) {
            ab_errs[pi].push_back(ab_cell[b][pi]);
            row.push_back(
                util::Table::fmtPercent(ab_cell[b][pi], 2));
        }
        ab.addRow(row);
    }
    std::vector<std::string> ab_mean = {"A-Mean"};
    for (const auto &es : ab_errs)
        ab_mean.push_back(util::Table::fmtPercent(bench::mean(es), 2));
    ab.addRow(ab_mean);
    ab.print(std::cout);
    std::printf("\njitter places each sample at a random offset "
                "inside its period;\nthe art/mcf short-period "
                "failures (micro-phase aliasing) should vanish.\n");
    bench::finish();
    return 0;
}
