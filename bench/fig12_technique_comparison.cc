/**
 * @file
 * Figure 12: sampling error AND amount of detailed simulation for
 * every technique, per workload plus A-Mean/G-Mean:
 *
 *  - SMARTS (1M-op functional-warming periods, 3k+1k samples)
 *  - TurboSMARTS (random-order processing to 3% @ 99.7%)
 *  - SimPoint, best of 11 clusterings per workload
 *    ({100k,1M,10M} x {5,10,20} clusters, plus 30x1M and 300x100k)
 *    and the best single configuration (10 clusters x 10M)
 *  - Online SimPoint, best per workload and fixed (10M, 0.1 pi),
 *    perfect phase predictor as in the paper
 *  - PGSS, best per workload (from the Figure-11 grid) and fixed
 *    (1M, 0.05 pi)
 *
 * Interval sizes are one decade below the paper's because the
 * workloads are a decade shorter (DESIGN.md sec. 2). The shape that
 * must reproduce: SMARTS and SimPoint most accurate; PGSS close
 * behind but ahead of TurboSMARTS; PGSS detailed-instruction counts
 * far below SMARTS and orders of magnitude below SimPoint.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "bench/support.hh"
#include "core/pgss_controller.hh"
#include "sampling/online_simpoint.hh"
#include "sampling/simpoint_sampler.hh"
#include "sampling/smarts.hh"
#include "sampling/turbosmarts.hh"
#include "util/table.hh"

using namespace pgss;

namespace
{

struct Cell
{
    double error = 0.0;
    std::uint64_t detailed = 0;
};

struct TechniqueSeries
{
    std::string name;
    std::vector<Cell> cells; // one per workload
};

Cell
bestOf(const Cell &a, const Cell &b)
{
    return a.error <= b.error ? a : b;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "fig12");
    bench::printHeader(
        "Figure 12 - error and detailed-instruction cost per "
        "technique",
        "SimPoint/Online-SimPoint/PGSS shown as best-per-benchmark "
        "and best-overall configurations.");

    const std::vector<bench::Entry> suite = bench::loadSuite();

    TechniqueSeries smarts{"SMARTS", {}};
    TechniqueSeries turbo{"TurboSMARTS", {}};
    TechniqueSeries sp_best{"SimPoint(best)", {}};
    TechniqueSeries sp_fixed{"SimPoint(10x10M)", {}};
    TechniqueSeries ol_best{"OnlineSP(best)", {}};
    TechniqueSeries ol_fixed{"OnlineSP(10M/.1)", {}};
    TechniqueSeries pgss_best{"PGSS(best)", {}};
    TechniqueSeries pgss_fixed{"PGSS(1M/.05)", {}};

    // Workloads are independent: compute every technique's cell for
    // workload b into slot b (possibly on a harness worker thread),
    // then print the tables serially below — output is identical at
    // any PGSS_JOBS.
    for (TechniqueSeries *s : {&smarts, &turbo, &sp_best, &sp_fixed,
                               &ol_best, &ol_fixed, &pgss_best,
                               &pgss_fixed})
        s->cells.resize(suite.size());

    bench::runEntriesParallel(suite.size(), [&](std::size_t b) {
        const bench::Entry &e = suite[b];
        const double true_ipc = e.profile.trueIpc();
        std::fprintf(stderr, "fig12: %s...\n", e.short_name.c_str());

        // ---- SMARTS + TurboSMARTS (one live run; Turbo draws from
        // the same measured population, as live-points would).
        {
            sim::SimulationEngine engine(e.built.program,
                                         bench::benchConfig());
            const sampling::SmartsRun run =
                sampling::runSmarts(engine);
            smarts.cells[b] = {run.result.errorVs(true_ipc),
                               run.result.detailed_ops};
            const sampling::SamplerResult tb =
                sampling::runTurboSmarts(run.sample_cpis);
            turbo.cells[b] = {tb.errorVs(true_ipc), tb.detailed_ops};
        }

        // ---- Offline SimPoint: 11 clusterings over 3 collections.
        {
            Cell best{std::numeric_limits<double>::max(), 0};
            Cell fixed;
            for (const std::uint64_t interval :
                 {100'000ull, 1'000'000ull, 10'000'000ull}) {
                std::uint64_t func_ops = 0;
                const auto bbvs = sampling::collectIntervalBbvs(
                    e.built.program, bench::benchConfig(), interval,
                    func_ops);
                std::vector<std::uint32_t> ks = {5, 10, 20};
                if (interval == 1'000'000)
                    ks.push_back(30);
                if (interval == 100'000)
                    ks.push_back(300);
                for (std::uint32_t k : ks) {
                    sampling::SimPointConfig cfg;
                    cfg.interval_ops = interval;
                    cfg.clusters = k;
                    const sampling::SimPointRun run =
                        sampling::runSimPointOnBbvs(
                            bbvs, cfg, e.profile, func_ops);
                    const Cell cell{run.result.errorVs(true_ipc),
                                    run.result.detailed_ops};
                    best = bestOf(best, cell);
                    if (interval == 10'000'000 && k == 10)
                        fixed = cell;
                }
            }
            sp_best.cells[b] = best;
            sp_fixed.cells[b] = fixed;
        }

        // ---- Online SimPoint (perfect predictor over the profile).
        {
            Cell best{std::numeric_limits<double>::max(), 0};
            Cell fixed;
            for (const std::uint64_t interval :
                 {1'000'000ull, 10'000'000ull}) {
                for (double th : {0.05, 0.10, 0.15}) {
                    sampling::OnlineSimPointConfig cfg;
                    cfg.interval_ops = interval;
                    cfg.threshold = th * M_PI;
                    const sampling::SamplerResult r =
                        sampling::runOnlineSimPoint(e.profile, cfg);
                    const Cell cell{r.errorVs(true_ipc),
                                    r.detailed_ops};
                    best = bestOf(best, cell);
                    if (interval == 10'000'000 && th == 0.10)
                        fixed = cell;
                }
            }
            ol_best.cells[b] = best;
            ol_fixed.cells[b] = fixed;
        }

        // ---- PGSS: fixed (1M, 0.05 pi) plus a best-of grid.
        {
            Cell best{std::numeric_limits<double>::max(), 0};
            Cell fixed;
            for (const std::uint64_t period :
                 {100'000ull, 1'000'000ull, 10'000'000ull}) {
                for (double th : {0.05, 0.10}) {
                    core::PgssConfig cfg;
                    cfg.bbv_period = period;
                    cfg.threshold = th * M_PI;
                    cfg.jitter_samples = false; // paper-faithful
                    sim::SimulationEngine engine(
                        e.built.program, bench::benchConfig());
                    const core::PgssResult r =
                        core::PgssController(cfg).run(engine);
                    const double err =
                        std::abs(r.est_ipc - true_ipc) / true_ipc;
                    const Cell cell{err, r.detailed_ops};
                    best = bestOf(best, cell);
                    if (period == 1'000'000 && th == 0.05)
                        fixed = cell;
                }
            }
            pgss_best.cells[b] = best;
            pgss_fixed.cells[b] = fixed;
        }
    });

    const TechniqueSeries *all[] = {&smarts,   &turbo,   &sp_best,
                                    &sp_fixed, &ol_best, &ol_fixed,
                                    &pgss_best, &pgss_fixed};

    // ---- Error table.
    std::printf("\n-- sampling error (%% of true IPC) --\n");
    util::Table errors;
    {
        std::vector<std::string> header = {"benchmark"};
        for (const auto *s : all)
            header.push_back(s->name);
        errors.setHeader(header);
        for (std::size_t b = 0; b < suite.size(); ++b) {
            std::vector<std::string> row = {suite[b].short_name};
            for (const auto *s : all)
                row.push_back(
                    util::Table::fmtPercent(s->cells[b].error, 2));
            errors.addRow(row);
        }
        std::vector<std::string> am = {"A-Mean"}, gm = {"G-Mean"};
        for (const auto *s : all) {
            std::vector<double> es;
            for (const Cell &c : s->cells)
                es.push_back(c.error);
            am.push_back(util::Table::fmtPercent(bench::mean(es), 2));
            gm.push_back(
                util::Table::fmtPercent(bench::geoMean(es), 2));
        }
        errors.addRow(am);
        errors.addRow(gm);
    }
    errors.print(std::cout);

    // ---- Detailed-instruction table.
    std::printf("\n-- amount of detailed simulation (instructions, "
                "detailed warming included) --\n");
    util::Table detail;
    {
        std::vector<std::string> header = {"benchmark"};
        for (const auto *s : all)
            header.push_back(s->name);
        detail.setHeader(header);
        for (std::size_t b = 0; b < suite.size(); ++b) {
            std::vector<std::string> row = {suite[b].short_name};
            for (const auto *s : all)
                row.push_back(util::Table::fmtSci(
                    static_cast<double>(s->cells[b].detailed), 1));
            detail.addRow(row);
        }
        std::vector<std::string> gm = {"G-Mean"};
        for (const auto *s : all) {
            std::vector<double> ds;
            for (const Cell &c : s->cells)
                ds.push_back(static_cast<double>(c.detailed));
            gm.push_back(util::Table::fmtSci(bench::geoMean(ds), 1));
        }
        detail.addRow(gm);
    }
    detail.print(std::cout);

    // ---- Headline ratios.
    auto gmean_detail = [&](const TechniqueSeries &s) {
        std::vector<double> ds;
        for (const Cell &c : s.cells)
            ds.push_back(static_cast<double>(c.detailed));
        return bench::geoMean(ds);
    };
    const double pgss_d = gmean_detail(pgss_fixed);
    std::printf("\ndetailed-simulation reduction of PGSS(1M/.05) "
                "(geomean):\n");
    std::printf("  vs SMARTS           %6.1fx\n",
                gmean_detail(smarts) / pgss_d);
    std::printf("  vs TurboSMARTS      %6.1fx\n",
                gmean_detail(turbo) / pgss_d);
    std::printf("  vs SimPoint(best)   %6.1fx\n",
                gmean_detail(sp_best) / pgss_d);
    std::printf("  vs SimPoint(10x10M) %6.1fx\n",
                gmean_detail(sp_fixed) / pgss_d);
    std::printf("  vs OnlineSP(best)   %6.1fx\n",
                gmean_detail(ol_best) / pgss_d);
    std::printf("\npaper's shape: SMARTS/SimPoint most accurate; "
                "PGSS close and better than\nTurboSMARTS; PGSS "
                "detail ~an order of magnitude under SMARTS and "
                "2-3\norders under SimPoint (our decade-scaled "
                "workloads compress the SMARTS\nratio; see "
                "EXPERIMENTS.md).\n");
    bench::finish();
    return 0;
}
