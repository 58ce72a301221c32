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
 * ops/s deltas are pure dispatch cost. Each variant is measured by
 * bench::measureRates, the loop fig13's rates use, and reported as
 * the best of three interleaved repetitions: the numbers feed
 * perf-smoke CI, where run-to-run noise on shared runners is large.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/support.hh"
#include "util/table.hh"

using namespace pgss;

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

    using sim::SimMode;
    const char *names[] = {"interp-step", "interp-fastop", "warm-step",
                           "warm-fastop"};
    const std::vector<bench::RateSpec> specs = {
        {SimMode::FunctionalFast, false, false},
        {SimMode::FunctionalFast, false, true},
        {SimMode::FunctionalWarm, true, false},
        {SimMode::FunctionalWarm, true, true},
    };
    const std::vector<std::vector<double>> samples =
        bench::measureRates(built, specs, 3);
    std::vector<double> rate;
    for (const std::vector<double> &xs : samples)
        rate.push_back(*std::max_element(xs.begin(), xs.end()));

    util::Table t("dispatch cost (164.gzip; interp: FunctionalFast, no "
                  "BBV; warm: FunctionalWarm, hashed BBV)");
    t.setHeader({"variant", "ops/s", "host MIPS", "vs step"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Each row against the step() loop of its own mode.
        const double step_rate = rate[i - i % 2];
        t.addRow({names[i], util::Table::fmtSci(rate[i], 3),
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
