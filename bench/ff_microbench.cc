/**
 * @file
 * Fast-forward dispatch microbenchmark: the cost of *how* an
 * instruction is dispatched, isolated from what it computes. Two
 * variants run the same workload (164.gzip) through FunctionalFast
 * with BBV tracking off:
 *
 *  - interp-step: the unbatched step() interpreter (the differential
 *    oracle; decode on every instruction).
 *  - interp-fastop: the pre-decoded FastOp batch loop (the
 *    fast-forward path).
 *
 * Since architectural work is identical across variants, the ops/s
 * deltas are pure dispatch cost. Best-of-3 per variant: the numbers
 * feed perf-smoke CI, where run-to-run noise on shared runners is
 * large.
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

/** One dispatch variant: a name plus the fast-path switch. */
struct Variant
{
    const char *name;
    bool fast_path;
};

/** Best-of-3 ops/sec for @p v over @p total_ops per repetition. */
double
measure(const workload::BuiltWorkload &built, const Variant &v,
        std::uint64_t total_ops)
{
    const sim::EngineConfig config = bench::benchConfig();

    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto engine = std::make_unique<sim::SimulationEngine>(
            built.program, config);
        engine->setFastPathEnabled(v.fast_path);
        // Warm: the decode-table build happens here, so the timed
        // region sees steady-state dispatch only.
        engine->run(200'000, sim::SimMode::FunctionalFast);

        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t ops = 0;
        while (ops < total_ops) {
            if (engine->halted()) {
                engine = std::make_unique<sim::SimulationEngine>(
                    built.program, config);
                engine->setFastPathEnabled(v.fast_path);
            }
            ops += engine->run(100'000, sim::SimMode::FunctionalFast)
                       .ops;
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
        "Fast-forward dispatch microbenchmark",
        "Same workload, same architectural work, two dispatch "
        "mechanisms; deltas are pure dispatch cost. Best-of-3.");

    // Fixed small gzip build (as fig13's rate harness uses): the
    // comparison needs identical work per variant, not suite scale.
    const workload::BuiltWorkload built =
        workload::buildWorkload("164.gzip", 0.05);

    // Enough ops that dispatch dominates timer noise, small enough
    // for a CI smoke step (2 variants x 3 reps x 4M ops).
    const std::uint64_t total_ops = 4'000'000;

    const Variant variants[] = {
        {"interp-step", false},
        {"interp-fastop", true},
    };

    double rate[2] = {};
    for (int i = 0; i < 2; ++i)
        rate[i] = measure(built, variants[i], total_ops);

    util::Table t("dispatch cost (164.gzip, FunctionalFast, no BBV)");
    t.setHeader({"variant", "ops/s", "host MIPS", "vs interp-step"});
    for (int i = 0; i < 2; ++i)
        t.addRow({variants[i].name, util::Table::fmtSci(rate[i], 3),
                  util::Table::fmt(rate[i] / 1e6, 1),
                  util::Table::fmt(rate[i] / rate[0], 2) + "x"});
    t.print(std::cout);

    std::printf("\nexpected shape: fastop removes per-instruction "
                "decode and the DynInst fill.\n");
    bench::finish();
    return 0;
}
