/**
 * @file
 * Figure 1: where each technique spends its detailed simulation.
 * SMARTS takes small periodic samples regardless of phase; SimPoint
 * takes one large sample per phase; PGSS-Sim uses phase information
 * to place many small samples, stopping once a phase is
 * characterised. Rendered as ASCII strips over a four-phase demo
 * program.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/phase_sequence.hh"
#include "bench/support.hh"
#include "core/pgss_controller.hh"
#include "sampling/simpoint_sampler.hh"
#include "sampling/smarts.hh"

using namespace pgss;

namespace
{

/** A four-phase demo: A B C B A D, each ~4M ops. */
workload::BuiltWorkload
demoWorkload()
{
    using workload::KernelKind;
    using workload::KernelSpec;
    workload::WorkloadSpec w;
    w.name = "fig1-demo";
    KernelSpec a;
    a.kind = KernelKind::Compute;
    a.inner_iters = 20000;
    a.ilp = 6;
    a.seed = 1;
    KernelSpec b;
    b.kind = KernelKind::Chase;
    b.footprint_bytes = 256 * 1024;
    b.inner_iters = 20000;
    b.seed = 2;
    KernelSpec c;
    c.kind = KernelKind::Branchy;
    c.footprint_bytes = 128 * 1024;
    c.taken_bias = 0.6;
    c.seed = 3;
    KernelSpec d;
    d.kind = KernelKind::Stream;
    d.footprint_bytes = 512 * 1024;
    d.seed = 4;
    w.instances = {{"A", a}, {"B", b}, {"C", c}, {"D", d}};
    const double phase_ops = 4e6;
    w.blocks = {
        {{{"A", phase_ops}}, 1}, {{{"B", phase_ops}}, 1},
        {{{"C", phase_ops}}, 1}, {{{"B", phase_ops}}, 1},
        {{{"A", phase_ops}}, 1}, {{{"D", phase_ops}}, 1},
    };
    return buildProgram(w, 1.0);
}

constexpr int strip_width = 96;

std::string
emptyStrip()
{
    return std::string(strip_width, '.');
}

void
mark(std::string &strip, double at_op, double total_ops, char glyph)
{
    const int col = std::min(
        strip_width - 1,
        static_cast<int>(at_op / total_ops * strip_width));
    strip[col] = glyph;
}

void
markRange(std::string &strip, double begin_op, double end_op,
          double total_ops, char glyph)
{
    const int lo = std::min(
        strip_width - 1,
        static_cast<int>(begin_op / total_ops * strip_width));
    const int hi = std::min(
        strip_width - 1,
        static_cast<int>(end_op / total_ops * strip_width));
    for (int c = lo; c <= hi; ++c)
        strip[c] = glyph;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "fig01");
    bench::printHeader(
        "Figure 1 - sample placement: SMARTS vs SimPoint vs PGSS-Sim",
        "Each strip is the whole program; marks show where detailed "
        "simulation happens.");

    const workload::BuiltWorkload demo = demoWorkload();
    const sim::EngineConfig &config = bench::benchConfig();
    const analysis::IntervalProfile profile =
        analysis::buildIntervalProfile(demo.program, config, 100'000);
    const double total_ops =
        static_cast<double>(profile.totalOps());

    // Phase track from the profile.
    const analysis::PhaseSequence seq =
        analysis::classifyProfile(profile, 0.05 * M_PI);
    std::string phase_strip = emptyStrip();
    for (std::size_t i = 0; i < seq.assignment.size(); ++i) {
        const double at = static_cast<double>(i) * 100'000.0;
        const char glyph = static_cast<char>(
            '1' + std::min<std::uint32_t>(seq.assignment[i], 8));
        mark(phase_strip, at, total_ops, glyph);
    }

    // SMARTS: uniform small samples.
    sampling::SmartsConfig smarts_cfg;
    sim::SimulationEngine smarts_engine(demo.program, config);
    const sampling::SmartsRun smarts =
        sampling::runSmarts(smarts_engine, smarts_cfg);
    std::string smarts_strip = emptyStrip();
    for (std::uint64_t s = 0; s < smarts.result.n_samples; ++s) {
        const double at =
            static_cast<double>((s + 1) *
                                (smarts_cfg.ff_period + sim::kSampleOps));
        mark(smarts_strip, at, total_ops, '|');
    }

    // SimPoint: one large interval per phase (k = 4, 1M-op points).
    sampling::SimPointConfig sp_cfg;
    sp_cfg.interval_ops = 1'000'000;
    sp_cfg.clusters = 4;
    const sampling::SimPointRun sp =
        sampling::runSimPoint(demo.program, config, sp_cfg, profile);
    std::string sp_strip = emptyStrip();
    for (std::uint32_t rep : sp.selection.rep_intervals) {
        const double begin = rep * 1e6;
        markRange(sp_strip, begin, begin + 1e6 - 1, total_ops, '#');
    }

    // PGSS: phase-guided small samples.
    sim::SimulationEngine pgss_engine(demo.program, config);
    const core::PgssResult pgss =
        core::PgssController().run(pgss_engine);
    std::string pgss_strip = emptyStrip();
    for (const core::PeriodRecord &p : pgss.periods)
        if (p.sampled)
            mark(pgss_strip,
                 static_cast<double>(p.start_op + p.sample_offset),
                 total_ops, '|');

    std::printf("\nprogram: %s, %.1fM ops, true IPC %.3f\n",
                demo.program.name.c_str(), total_ops / 1e6,
                profile.trueIpc());
    std::printf("\nphase    %s\n", phase_strip.c_str());
    std::printf("SMARTS   %s\n", smarts_strip.c_str());
    std::printf("SimPoint %s\n", sp_strip.c_str());
    std::printf("PGSS     %s\n\n", pgss_strip.c_str());

    std::printf("detailed instructions:\n");
    std::printf("  SMARTS   %12llu (%llu samples of 4k)\n",
                static_cast<unsigned long long>(
                    smarts.result.detailed_ops),
                static_cast<unsigned long long>(
                    smarts.result.n_samples));
    std::printf("  SimPoint %12llu (%llu points of 1M)\n",
                static_cast<unsigned long long>(
                    sp.result.detailed_ops),
                static_cast<unsigned long long>(
                    sp.result.n_samples));
    std::printf("  PGSS     %12llu (%llu samples of 4k, %llu "
                "phases)\n",
                static_cast<unsigned long long>(pgss.detailed_ops),
                static_cast<unsigned long long>(pgss.n_samples),
                static_cast<unsigned long long>(pgss.n_phases));
    std::printf("\nexpected shape: PGSS samples cluster where phases "
                "first appear or recur\nand stop once each phase's "
                "CI closes; SMARTS stays uniform; SimPoint\nspends "
                "contiguous megasamples.\n");
    bench::finish();
    return 0;
}
