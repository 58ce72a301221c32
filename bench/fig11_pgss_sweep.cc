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
 * configuration per workload: 180 full sampled simulations, the 18
 * of each workload in one journaled suite entry. The headline grid
 * uses the paper-faithful algorithm (the detailed sample sits at the
 * start of the period); a second, smaller grid shows this library's
 * jittered-placement refinement (DESIGN.md sec. 6), which cures the
 * period/micro-phase aliasing.
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
constexpr std::size_t kGrid = std::size(periods) * std::size(thresholds);

/** Error of one live PGSS run of @p e. */
double
pgssError(const bench::Entry &e, std::uint64_t period, double threshold,
          bool jitter)
{
    core::PgssConfig cfg;
    cfg.bbv_period = period;
    cfg.threshold = threshold * M_PI;
    cfg.jitter_samples = jitter;
    sim::SimulationEngine engine(e.built.program, bench::benchConfig());
    const core::PgssResult r = core::PgssController(cfg).run(engine);
    return std::abs(r.est_ipc - e.profile.trueIpc()) / e.profile.trueIpc();
}

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

    // One row per workload: the paper-faithful grid (period-start
    // samples), row[p * 5 + t] for periods[p] and thresholds[t], then
    // the jittered ablation at 0.05 pi, row[kGrid + p].
    const std::vector<std::vector<double>> rows = bench::runSuite(
        suite, "fig11", kGrid + std::size(periods), [&](std::size_t b) {
            std::vector<double> row;
            for (const std::uint64_t period : periods)
                for (const double th : thresholds)
                    row.push_back(pgssError(suite[b], period, th, false));
            for (const std::uint64_t period : periods)
                row.push_back(pgssError(suite[b], period, 0.05, true));
            return row;
        });
    // Every mean needs every workload, so a failed entry prints no
    // table; a --resume run retries only the failures.
    std::string failed;
    for (std::size_t b = 0; b < suite.size(); ++b)
        if (rows[b].empty())
            failed += " " + suite[b].name;
    if (!failed.empty()) {
        std::fprintf(stderr, "fig11: failed entries:%s\n", failed.c_str());
        bench::finish();
        return 1;
    }

    double best_overall = 1e9;
    std::uint64_t best_period = 0;
    double best_threshold = 0;

    for (std::size_t pi = 0; pi < std::size(periods); ++pi) {
        const std::uint64_t period = periods[pi];
        std::printf("\n-- %s-op BBV sample length --\n",
                    period == 100'000
                        ? "100k"
                        : (period == 1'000'000 ? "1M" : "10M"));
        util::Table t;
        std::vector<std::string> header = {"benchmark"};
        for (double th : thresholds)
            header.push_back(util::Table::fmt(th, 2));
        t.setHeader(header);

        std::vector<std::vector<double>> errs(
            std::size(thresholds));
        for (std::size_t b = 0; b < suite.size(); ++b) {
            std::vector<std::string> row = {suite[b].short_name};
            for (std::size_t ti = 0; ti < std::size(thresholds);
                 ++ti) {
                const double err =
                    rows[b][pi * std::size(thresholds) + ti];
                errs[ti].push_back(err);
                row.push_back(util::Table::fmtPercent(err, 2));
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
    std::vector<std::vector<double>> ab_errs(std::size(periods));
    for (std::size_t b = 0; b < suite.size(); ++b) {
        std::vector<std::string> row = {suite[b].short_name};
        for (std::size_t pi = 0; pi < std::size(periods); ++pi) {
            const double err = rows[b][kGrid + pi];
            ab_errs[pi].push_back(err);
            row.push_back(util::Table::fmtPercent(err, 2));
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
