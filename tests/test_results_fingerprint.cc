/**
 * @file
 * Results fingerprint: the simulator's outputs on the whole suite at a
 * small scale, compared byte for byte with a committed golden
 * (tests/data/results_fingerprint.txt). Performance refactors must
 * leave it unchanged; a deliberate behaviour change refreshes the
 * golden in the open. Per program it records the PGSS(1M, 0.05 pi)
 * CPI estimate, detailed ops, phase count and phase changes, and the
 * per-phase sample counts, periods and ops; the SMARTS and TurboSMARTS
 * CPI estimates, and TurboSMARTS's estimate and sample count at a
 * looser target that stops it early; the
 * SimPoint (100k ops, k=10) and Online SimPoint (500k ops, 0.1 pi) CPI
 * estimates; the ground-truth CPI of a 100k-op interval profile; and
 * the cache and branch-unit counters after a FunctionalWarm run to
 * halt (RAS contents and statistics are not part of checkpoints, so
 * only these counters pin them).
 *
 * On a mismatch the actual text is written into the build tree and the
 * failure message carries the command that refreshes the golden.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/interval_profile.hh"
#include "core/pgss_controller.hh"
#include "obs/stats.hh"
#include "sampling/online_simpoint.hh"
#include "sampling/simpoint_sampler.hh"
#include "sampling/smarts.hh"
#include "sampling/turbosmarts.hh"
#include "sim/engine.hh"
#include "workload/suite.hh"

using namespace pgss;

namespace
{

/** Small enough for a sanitizer build, long enough for phases. */
constexpr double kScale = 0.02;

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Every Counter under @p prefix in @p stats, one "path value" line. */
void
appendCounters(std::ostringstream &os, const obs::StatsRegistry &stats,
               const std::string &prefix)
{
    for (const auto &[path, kind] : stats.flattenKinds()) {
        const std::string dotted = path.substr(std::string("stats.").size());
        if (kind != obs::StatKind::Counter ||
            dotted.compare(0, prefix.size(), prefix) != 0)
            continue;
        os << "  " << dotted << " " << *stats.counterValue(dotted)
           << "\n";
    }
}

/** The fingerprint section of one suite program. */
std::string
fingerprint(const std::string &name)
{
    const workload::BuiltWorkload built =
        workload::buildWorkload(name, kScale);
    std::ostringstream os;
    os << "program " << name << "\n";

    {
        sim::SimulationEngine engine(built.program);
        core::PgssConfig cfg;
        cfg.bbv_period = 1'000'000;
        cfg.threshold = 0.05 * M_PI;
        const core::PgssResult r = core::PgssController(cfg).run(engine);
        os << "  pgss.est_cpi " << fmtDouble(r.est_cpi) << "\n"
           << "  pgss.detailed_ops " << r.detailed_ops << "\n"
           << "  pgss.phases " << r.n_phases << "\n"
           << "  pgss.phase_samples";
        for (const core::PhaseSummary &p : r.phases)
            os << " " << p.samples;
        os << "\n  pgss.phase_changes " << r.n_phase_changes << "\n"
           << "  pgss.phase_periods";
        for (const core::PhaseSummary &p : r.phases)
            os << " " << p.member_periods;
        os << "\n  pgss.phase_ops";
        for (const core::PhaseSummary &p : r.phases)
            os << " " << p.ops;
        os << "\n";
    }
    {
        sim::SimulationEngine engine(built.program);
        const sampling::SmartsRun s = sampling::runSmarts(engine);
        // At this scale the default target (+/-3% at 99.7%) draws the
        // whole population in every program, so its estimate pins only
        // the summation order. +/-10% with at least 3 samples stops
        // early in some, which pins the stopping rule and draw order.
        sampling::TurboSmartsConfig loose;
        loose.relative_error = 0.10;
        loose.min_samples = 3;
        const sampling::SamplerResult t =
            sampling::runTurboSmarts(s.sample_cpis, loose);
        os << "  smarts.est_cpi " << fmtDouble(s.result.est_cpi) << "\n"
           << "  turbosmarts.est_cpi "
           << fmtDouble(sampling::runTurboSmarts(s.sample_cpis).est_cpi)
           << "\n"
           << "  turbosmarts_loose.est_cpi " << fmtDouble(t.est_cpi)
           << "\n"
           << "  turbosmarts_loose.n_samples " << t.n_samples << "\n";
    }
    {
        // Built directly, not through the profile cache.
        const analysis::IntervalProfile profile =
            analysis::buildIntervalProfile(built.program, {}, 100'000);
        std::uint64_t functional_ops = 0;
        const auto bbvs = sampling::collectIntervalBbvs(
            built.program, {}, 100'000, functional_ops);
        sampling::SimPointConfig sp;
        sp.interval_ops = 100'000;
        sp.clusters = 10;
        sampling::OnlineSimPointConfig osp;
        osp.interval_ops = 500'000;
        osp.threshold = 0.1 * M_PI;
        os << "  simpoint.est_cpi "
           << fmtDouble(sampling::runSimPointOnBbvs(bbvs, sp, profile,
                                                    functional_ops)
                            .result.est_cpi)
           << "\n"
           << "  online_simpoint.est_cpi "
           << fmtDouble(sampling::runOnlineSimPoint(profile, osp).est_cpi)
           << "\n"
           << "  truth.cpi " << fmtDouble(profile.trueCpi()) << "\n";
    }
    {
        sim::SimulationEngine engine(built.program);
        obs::StatsRegistry stats;
        engine.registerStats(stats.root());
        engine.runToCompletion(sim::SimMode::FunctionalWarm);
        os << "  warm.total_ops " << engine.totalOps() << "\n";
        for (const char *group : {"l1i.", "l1d.", "l2.", "branch."})
            appendCounters(os, stats, std::string("engine.") + group);
    }
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(ResultsFingerprint, MatchesGolden)
{
    std::string actual =
        "# results fingerprint, scale " + std::to_string(kScale) + "\n";
    for (const std::string &name : workload::suiteNames())
        actual += fingerprint(name);

    const std::string golden_path =
        std::string(PGSS_TEST_DATA_DIR) + "/results_fingerprint.txt";
    if (actual == readFile(golden_path))
        return;

    const std::string actual_path =
        std::string(PGSS_TEST_BINARY_DIR) +
        "/results_fingerprint.actual.txt";
    std::ofstream(actual_path, std::ios::binary) << actual;
    ADD_FAILURE() << "results fingerprint differs from " << golden_path
                  << "\nactual text: " << actual_path
                  << "\nif the change is deliberate, refresh with:\n  cp "
                  << actual_path << " " << golden_path;
}
