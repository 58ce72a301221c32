/**
 * @file
 * Dispatch microbenchmark: the cost of *how* an instruction is
 * dispatched, isolated from what it computes. The same workload
 * (164.gzip) runs through two loops in two modes:
 *
 *  - interp-step / warm-step: the step() interpreter and the engine's
 *    DynInst loops (setFastPathEnabled(false); the differential
 *    oracle; decode and a DynInst fill on every instruction).
 *  - interp-fastop / warm-fastop: the pre-decoded FastOp execute loop
 *    with the mode's hooks inlined (the production path).
 *
 * The interp rows run FunctionalFast with BBV tracking off; the warm
 * rows run FunctionalWarm with the hashed BBV on, as PGSS runs it, so
 * they show the warm loop's dispatch and hook cost directly. Since
 * the simulated work is identical across the two loops of a mode, the
 * ops/s deltas are pure dispatch cost. Best-of-3 per variant: the
 * numbers feed perf-smoke CI, where run-to-run noise on shared
 * runners is large.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/support.hh"
#include "sim/engine.hh"
#include "util/table.hh"
#include "workload/suite.hh"

using namespace pgss;

namespace
{

/** One dispatch variant: a name, the fast-path switch and the mode. */
struct Variant
{
    const char *name;
    bool fast_path;
    sim::SimMode mode;
};

/** Best-of-3 ops/sec for @p v over @p total_ops per repetition. */
double
measure(const workload::BuiltWorkload &built, const Variant &v,
        std::uint64_t total_ops)
{
    const sim::EngineConfig config = bench::benchConfig();

    const auto fresh = [&] {
        auto engine = std::make_unique<sim::SimulationEngine>(
            built.program, config);
        engine->setFastPathEnabled(v.fast_path);
        engine->setHashedBbvEnabled(v.mode == sim::SimMode::FunctionalWarm);
        return engine;
    };

    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto engine = fresh();
        // Warm: the decode-table build happens here, so the timed
        // region sees steady-state dispatch only.
        engine->run(200'000, v.mode);

        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t ops = 0;
        while (ops < total_ops) {
            if (engine->halted())
                engine = fresh();
            ops += engine->run(100'000, v.mode).ops;
        }
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        best = std::max(best, static_cast<double>(ops) / secs);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, "ff_microbench");
    bench::printHeader(
        "Dispatch microbenchmark",
        "Same workload, same simulated work, two dispatch mechanisms "
        "per mode; deltas are pure dispatch cost. Best-of-3.");

    // Fixed small gzip build (as fig13's rate harness uses): the
    // comparison needs identical work per variant, not suite scale.
    const workload::BuiltWorkload built =
        workload::buildWorkload("164.gzip", 0.05);

    // Enough ops that dispatch dominates timer noise, small enough
    // for a CI smoke step (4 variants x 3 reps x 4M ops).
    const std::uint64_t total_ops = 4'000'000;

    using sim::SimMode;
    const Variant variants[] = {
        {"interp-step", false, SimMode::FunctionalFast},
        {"interp-fastop", true, SimMode::FunctionalFast},
        {"warm-step", false, SimMode::FunctionalWarm},
        {"warm-fastop", true, SimMode::FunctionalWarm},
    };
    constexpr int n_variants = 4;

    double rate[n_variants] = {};
    for (int i = 0; i < n_variants; ++i)
        rate[i] = measure(built, variants[i], total_ops);

    util::Table t("dispatch cost (164.gzip; interp: FunctionalFast, no "
                  "BBV; warm: FunctionalWarm, hashed BBV)");
    t.setHeader({"variant", "ops/s", "host MIPS", "vs step"});
    for (int i = 0; i < n_variants; ++i) {
        // Each row against the step() loop of its own mode.
        const double step_rate = rate[i - i % 2];
        t.addRow({variants[i].name, util::Table::fmtSci(rate[i], 3),
                  util::Table::fmt(rate[i] / 1e6, 1),
                  util::Table::fmt(rate[i] / step_rate, 2) + "x"});
    }
    t.print(std::cout);

    std::printf("\nexpected shape: fastop removes per-instruction "
                "decode and the DynInst fill; in warm mode it also "
                "inlines the warming calls.\n");
    bench::finish();
    return 0;
}
