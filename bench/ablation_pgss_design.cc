/**
 * @file
 * Ablation study over the PGSS design choices DESIGN.md section 6
 * calls out (not a paper figure — supporting evidence for the
 * reproduction's parameter choices):
 *
 *  - jittered vs period-start sample placement
 *  - compare-to-last-phase-first vs always-full-table matching
 *  - sample spreading on/off
 *  - hashed-BBV width (4/5/6 address bits -> 16/32/64 accumulators)
 *  - per-phase minimum-sample floor (2/4/8)
 *
 * Three representative workloads: gzip (rich phase structure), art
 * (fine-grained micro-phases), equake (long stable phases).
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

struct Variant
{
    std::string name;
    core::PgssConfig config;
    sim::EngineConfig engine; ///< for the hash-width ablation
};

std::vector<Variant>
variants(const sim::EngineConfig &base_engine)
{
    std::vector<Variant> out;
    core::PgssConfig base; // library defaults: 100k, 0.05 pi, jitter

    auto add = [&](const std::string &name,
                   const core::PgssConfig &cfg,
                   const sim::EngineConfig &eng) {
        out.push_back({name, cfg, eng});
    };

    add("default (jitter on)", base, base_engine);

    core::PgssConfig no_jitter = base;
    no_jitter.jitter_samples = false;
    add("period-start samples", no_jitter, base_engine);

    core::PgssConfig no_last = base;
    no_last.compare_last_first = false;
    add("no compare-last-first", no_last, base_engine);

    core::PgssConfig no_spread = base;
    no_spread.min_sample_spacing = 0;
    add("no sample spreading", no_spread, base_engine);

    for (std::uint32_t bits : {4u, 6u}) {
        sim::EngineConfig eng = base_engine;
        eng.hashed_bbv.hash_bits = bits;
        add("hash bits = " + std::to_string(bits), base, eng);
    }

    for (std::uint64_t floor : {2ull, 8ull}) {
        core::PgssConfig cfg = base;
        cfg.min_samples_per_phase = floor;
        add("min samples = " + std::to_string(floor), cfg,
            base_engine);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "ablation_pgss_design");
    bench::printHeader(
        "Ablation - PGSS design choices (100k period, 0.05 pi)",
        "Error / detailed ops / phases for each variant; DESIGN.md "
        "sec. 6 documents the choices.");

    const std::vector<bench::Entry> entries =
        bench::loadSuite({"164.gzip", "179.art", "183.equake"});

    // Each entry's row holds 4 numbers per variant, printed serially
    // below, so output is identical at any PGSS_JOBS and after a
    // --resume replays finished entries from the journal.
    const std::vector<Variant> vars = variants(bench::benchConfig());
    const std::vector<std::vector<double>> rows = bench::runSuite(
        entries, "ablation", 4 * vars.size(), [&](std::size_t b) {
            std::vector<double> row;
            for (const Variant &v : vars) {
                sim::SimulationEngine engine(entries[b].built.program,
                                             v.engine);
                const core::PgssResult r =
                    core::PgssController(v.config).run(engine);
                row.push_back(r.est_ipc);
                row.push_back(static_cast<double>(r.n_samples));
                row.push_back(static_cast<double>(r.detailed_ops));
                row.push_back(static_cast<double>(r.n_phases));
            }
            return row;
        });

    bool any_failed = false;
    for (std::size_t b = 0; b < entries.size(); ++b) {
        const bench::Entry &e = entries[b];
        std::printf("\n-- %s (true IPC %.3f) --\n", e.short_name.c_str(),
                    e.profile.trueIpc());
        const std::vector<double> &vals = rows[b];
        if (vals.empty()) {
            any_failed = true;
            std::printf("   entry failed (its error is on stderr)\n");
            continue;
        }
        util::Table t;
        t.setHeader({"variant", "error", "samples", "detailed ops",
                     "phases"});
        for (std::size_t vi = 0; vi < vars.size(); ++vi) {
            const double est_ipc = vals[4 * vi];
            const auto n_samples =
                static_cast<std::uint64_t>(vals[4 * vi + 1]);
            const auto detailed_ops =
                static_cast<std::uint64_t>(vals[4 * vi + 2]);
            const auto n_phases =
                static_cast<std::uint64_t>(vals[4 * vi + 3]);
            const double err = std::abs(est_ipc - e.profile.trueIpc()) /
                               e.profile.trueIpc();
            t.addRow({vars[vi].name, util::Table::fmtPercent(err, 2),
                      std::to_string(n_samples),
                      util::Table::fmtCount(detailed_ops),
                      std::to_string(n_phases)});
        }
        t.print(std::cout);
    }

    std::printf("\nreading guide: period-start sampling risks "
                "micro-phase aliasing (art);\ndisabling spreading "
                "concentrates samples early in each phase; 4- and\n"
                "6-bit hashes find the same phases as 5 bits on these "
                "workloads, so their\nrows equal the default's; a "
                "higher sample floor costs detail on stable\n"
                "workloads (equake).\n");
    bench::finish();
    // Failed entries were isolated, not fatal — but the exit status
    // still reports them so CI (and a --resume retry) notices.
    return any_failed ? 1 : 0;
}
