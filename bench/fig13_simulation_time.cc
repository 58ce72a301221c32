/**
 * @file
 * Figure 13: total simulation time per technique, composed from the
 * simulator's measured per-mode execution rates (the paper's side
 * panel lists rates for fast-forward / functional fast-forward /
 * detailed warming / detailed simulation, with and without BBV
 * tracking). All eight rates are measured on this machine over
 * interleaved repetitions (bench::measureRates) and printed as
 * median [min, max]; each technique's per-mode instruction counts
 * over the ten-workload suite are then priced at the medians, exactly
 * as the paper composes its bars (no checkpointing assumed).
 *
 * Absolute times differ from the paper's (their simulator ran at
 * ~10^5-10^6 ops/s; this one runs at ~10^7-10^8), and our
 * fast-forward/detailed ratio is smaller than most simulators'; the
 * paper makes the same caveat about its own ratio in Section 6.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/phase_sequence.hh"
#include "bench/support.hh"
#include "core/pgss_controller.hh"
#include "sampling/smarts.hh"
#include "util/table.hh"

using namespace pgss;

namespace
{

/** Interleaved repetitions per rate. */
constexpr int kReps = 5;

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/** "median [min, max]" of one rate's repetitions. */
std::string
fmtRate(const std::vector<double> &xs)
{
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    return util::Table::fmtSci(median(xs), 3) + " [" +
           util::Table::fmtSci(*lo, 3) + ", " +
           util::Table::fmtSci(*hi, 3) + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "fig13_simulation_time");
    bench::printHeader(
        "Figure 13 - total simulation time per technique",
        "Per-mode rates measured over interleaved repetitions; "
        "technique totals composed from per-mode op counts.");

    // ---- Rates: every mode with and without BBV, on a fixed small
    // gzip build (the rates need identical work, not suite scale).
    // modes[] lists SimMode in declaration order, so the spec of
    // (mode, bbv) is samples[2 * mode + bbv].
    using sim::SimMode;
    struct ModeRow
    {
        const char *name;
        SimMode mode;
    };
    const ModeRow modes[] = {
        {"fast-forward", SimMode::FunctionalFast},
        {"functional warming", SimMode::FunctionalWarm},
        {"detailed warming", SimMode::DetailedWarm},
        {"detailed simulation", SimMode::DetailedMeasure},
    };
    std::vector<bench::RateSpec> specs;
    for (const ModeRow &m : modes)
        for (bool bbv : {false, true})
            specs.push_back({m.mode, bbv});
    const std::vector<std::vector<double>> samples =
        bench::measureRates(workload::buildWorkload("164.gzip", 0.05),
                            specs, kReps);
    const auto rate = [&samples](SimMode mode, bool bbv) {
        return median(
            samples[2 * static_cast<std::size_t>(mode) + (bbv ? 1 : 0)]);
    };
    const double r_ff_bbv = rate(SimMode::FunctionalFast, true);
    const double r_warm = rate(SimMode::FunctionalWarm, false);
    const double r_warm_bbv = rate(SimMode::FunctionalWarm, true);
    const double r_det = rate(SimMode::DetailedMeasure, false);
    const double r_det_bbv = rate(SimMode::DetailedMeasure, true);

    util::Table rt("per-mode simulation rates (ops/s, 164.gzip): "
                   "median [min, max] of " +
                   std::to_string(kReps) + " interleaved repetitions");
    rt.setHeader({"mode", "no BBV", "with BBV"});
    for (int m = 0; m < 4; ++m)
        rt.addRow({modes[m].name, fmtRate(samples[2 * m]),
                   fmtRate(samples[2 * m + 1])});
    std::printf("\n");
    rt.print(std::cout);
    std::printf("BBV overhead on detailed simulation: %.1f%% "
                "(paper: ~1%%)\n",
                100.0 * (r_det / r_det_bbv - 1.0));
    std::printf("BBV overhead on functional warming: %.1f%% "
                "(paper: nil)\n\n",
                100.0 * (r_warm / r_warm_bbv - 1.0));

    // Per-technique op counts over the whole suite. Each entry's
    // contributions land in slot b (computed on harness workers);
    // summation happens serially in suite order afterwards, so totals
    // are bit-identical at any PGSS_JOBS. The eight per-entry doubles
    // travel as a journaled payload, so a killed run resumed with
    // --resume re-aggregates exactly the numbers the finished entries
    // produced.
    const std::vector<bench::Entry> suite = bench::loadSuite();
    const std::vector<bench::EntryOutcome> outcomes =
        bench::runEntriesJournaled(suite, "ops", [&](std::size_t b) {
            const bench::Entry &e = suite[b];
            const double n =
                static_cast<double>(e.profile.totalOps());

            // SMARTS: functional warming between detailed samples,
            // one per ff_period plus the sample unit.
            const double smarts_samples =
                n / static_cast<double>(sampling::SmartsConfig{}.ff_period +
                                        sim::kSampleOps);
            const double smarts_det =
                smarts_samples * static_cast<double>(sim::kSampleOps);
            const double smarts_ff = n - smarts_det;

            // SimPoint (10 clusters x 10M): one fast BBV-collection
            // pass plus a fast pass to reach the points, plus the
            // details.
            const double sp_ff = 2.0 * n;
            const double sp_det = 10.0 * 10e6;

            // Online SimPoint (10M, 0.1 pi): one warm pass with BBV,
            // one 10M-op detailed sample per phase.
            const analysis::PhaseSequence seq =
                analysis::classifyProfile(e.profile.aggregate(100),
                                          0.1 * M_PI);
            const double ol_ff = n;
            const double ol_det = seq.n_phases * 10e6;

            // PGSS (1M, 0.05 pi): run it live for honest counts.
            core::PgssConfig cfg;
            cfg.bbv_period = 1'000'000;
            sim::SimulationEngine engine(e.built.program,
                                         bench::benchConfig());
            const core::PgssResult r =
                core::PgssController(cfg).run(engine);
            return bench::encodeDoubles(
                {smarts_ff, smarts_det, sp_ff, sp_det, ol_ff, ol_det,
                 static_cast<double>(r.mode_ops.functional_warm),
                 static_cast<double>(r.detailed_ops)});
        });

    double smarts_ff = 0, smarts_det = 0;
    double sp_ff = 0, sp_det = 0;
    double ol_ff = 0, ol_det = 0;
    double pgss_ff = 0, pgss_det = 0;
    bool any_failed = false;
    for (std::size_t b = 0; b < suite.size(); ++b) {
        std::vector<double> v;
        if (!outcomes[b].ok ||
            !bench::decodeDoubles(outcomes[b].payload, v) ||
            v.size() != 8) {
            any_failed = true;
            std::fprintf(stderr, "entry %s failed: %s\n",
                         suite[b].name.c_str(),
                         outcomes[b].error.empty()
                             ? "bad journal payload"
                             : outcomes[b].error.c_str());
            continue;
        }
        smarts_ff += v[0];
        smarts_det += v[1];
        sp_ff += v[2];
        sp_det += v[3];
        ol_ff += v[4];
        ol_det += v[5];
        pgss_ff += v[6];
        pgss_det += v[7];
    }

    util::Table t("estimated total simulation time, ten-workload "
                  "suite (no checkpointing)");
    t.setHeader({"technique", "ff ops", "detailed ops", "ff time (s)",
                 "detailed time (s)", "total (s)"});
    struct Row
    {
        const char *name;
        double ff, det, ff_rate, det_rate;
    };
    const Row rows[] = {
        {"SMARTS", smarts_ff, smarts_det, r_warm, r_det},
        {"SimPoint", sp_ff, sp_det, r_ff_bbv, r_det},
        {"OL SimPoint", ol_ff, ol_det, r_warm_bbv, r_det},
        {"PGSS-Sim", pgss_ff, pgss_det, r_warm_bbv, r_det_bbv},
    };
    for (const Row &row : rows) {
        const double ff_t = row.ff / row.ff_rate;
        const double det_t = row.det / row.det_rate;
        t.addRow({row.name, util::Table::fmtSci(row.ff, 2),
                  util::Table::fmtSci(row.det, 2),
                  util::Table::fmt(ff_t, 1),
                  util::Table::fmt(det_t, 1),
                  util::Table::fmt(ff_t + det_t, 1)});
    }
    t.print(std::cout);

    std::printf("\nPGSS combined detailed warming+simulation time: "
                "%.2f s for the suite\n(the paper reports ~380 s on "
                "its much slower simulator).\n",
                pgss_det / r_det_bbv);
    std::printf("expected shape: totals are dominated by "
                "fast-forwarding and comparable\nacross techniques; "
                "PGSS's detailed component is by far the smallest. "
                "Our\nFF/detailed rate gap is small, as was the "
                "paper's (Section 6 caveat).\n");
    bench::finish();
    return any_failed ? 1 : 0;
}
