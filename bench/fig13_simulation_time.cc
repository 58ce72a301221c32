/**
 * @file
 * Figure 13: total simulation time per technique, composed from the
 * simulator's measured per-mode execution rates (the paper's side
 * panel lists rates for fast-forward / functional fast-forward /
 * detailed warming / detailed simulation, with and without BBV
 * tracking). The per-mode rates are measured with google-benchmark
 * on this machine, then each technique's per-mode instruction counts
 * over the ten-workload suite are priced at those rates, exactly as
 * the paper composes its bars (no checkpointing assumed).
 *
 * Absolute times differ from the paper's (their simulator ran at
 * ~10^5-10^6 ops/s; this one runs at ~10^7-10^8), and our
 * fast-forward/detailed ratio is smaller than most simulators'; the
 * paper makes the same caveat about its own ratio in Section 6.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include <benchmark/benchmark.h>

#include "analysis/phase_sequence.hh"
#include "bench/support.hh"
#include "core/pgss_controller.hh"
#include "sampling/smarts.hh"
#include "util/table.hh"

using namespace pgss;

namespace
{

/** Rate-measurement harness: run a workload chunkwise in one mode. */
class RateRunner
{
  public:
    RateRunner(bool bbv, sim::SimMode mode)
        : bbv_(bbv), mode_(mode),
          built_(workload::buildWorkload("164.gzip", 0.05))
    {
        reset();
    }

    std::uint64_t
    runChunk(std::uint64_t n)
    {
        if (engine_->halted())
            reset();
        const sim::RunResult r = engine_->run(n, mode_);
        if (bbv_)
            engine_->harvestHashedBbv();
        return r.ops;
    }

  private:
    void
    reset()
    {
        engine_ = std::make_unique<sim::SimulationEngine>(
            built_.program, bench::benchConfig());
        engine_->setHashedBbvEnabled(bbv_);
    }

    bool bbv_;
    sim::SimMode mode_;
    workload::BuiltWorkload built_;
    std::unique_ptr<sim::SimulationEngine> engine_;
};

void
rateBenchmark(benchmark::State &state, bool bbv, sim::SimMode mode)
{
    RateRunner runner(bbv, mode);
    std::uint64_t ops = 0;
    for (auto _ : state)
        ops += runner.runChunk(100'000);
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/** Wall-clock ops/sec of one mode (for the composition section). */
double
measureRate(bool bbv, sim::SimMode mode)
{
    RateRunner runner(bbv, mode);
    runner.runChunk(200'000); // warm the harness
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ops = 0;
    while (ops < 4'000'000)
        ops += runner.runChunk(100'000);
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return static_cast<double>(ops) / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "fig13_simulation_time");
    bench::printHeader(
        "Figure 13 - total simulation time per technique",
        "Per-mode rates measured with google-benchmark; technique "
        "totals composed from per-mode op counts.");

    using sim::SimMode;
    benchmark::Initialize(&argc, argv);
    benchmark::RegisterBenchmark("rate/fast_forward_with_bbv",
                                 rateBenchmark, true,
                                 SimMode::FunctionalFast);
    benchmark::RegisterBenchmark("rate/functional_ff_with_bbv",
                                 rateBenchmark, true,
                                 SimMode::FunctionalWarm);
    benchmark::RegisterBenchmark("rate/detailed_warming_with_bbv",
                                 rateBenchmark, true,
                                 SimMode::DetailedWarm);
    benchmark::RegisterBenchmark("rate/detailed_sim_with_bbv",
                                 rateBenchmark, true,
                                 SimMode::DetailedMeasure);
    benchmark::RegisterBenchmark("rate/functional_ff_no_bbv",
                                 rateBenchmark, false,
                                 SimMode::FunctionalWarm);
    benchmark::RegisterBenchmark("rate/detailed_warming_no_bbv",
                                 rateBenchmark, false,
                                 SimMode::DetailedWarm);
    benchmark::RegisterBenchmark("rate/detailed_sim_no_bbv",
                                 rateBenchmark, false,
                                 SimMode::DetailedMeasure);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // ---- Composition: price each technique's per-mode op counts.
    const double r_ff_bbv =
        measureRate(true, SimMode::FunctionalFast);
    const double r_warm_bbv =
        measureRate(true, SimMode::FunctionalWarm);
    const double r_det_bbv =
        measureRate(true, SimMode::DetailedMeasure);
    const double r_ff = measureRate(false, SimMode::FunctionalFast);
    const double r_warm =
        measureRate(false, SimMode::FunctionalWarm);
    const double r_det =
        measureRate(false, SimMode::DetailedMeasure);

    std::printf("\nmeasured rates (ops/sec):\n");
    std::printf("  fast-forward            %12.3e (with BBV "
                "%12.3e)\n",
                r_ff, r_ff_bbv);
    std::printf("  functional fast-forward %12.3e (with BBV "
                "%12.3e)\n",
                r_warm, r_warm_bbv);
    std::printf("  detailed simulation     %12.3e (with BBV "
                "%12.3e)\n",
                r_det, r_det_bbv);
    std::printf("  BBV overhead on detailed simulation: %.1f%% "
                "(paper: ~1%%)\n",
                100.0 * (r_det / r_det_bbv - 1.0));

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

            // SMARTS: functional warming between 4k-op sample
            // windows.
            const double smarts_samples = n / 1'004'000.0;
            const double smarts_det = smarts_samples * 4'000.0;
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
