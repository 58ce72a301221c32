#include "core/pgss_controller.hh"

#include <cmath>
#include <limits>

#include "bbv/bbv_math.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "stats/confidence.hh"
#include "stats/stratified.hh"
#include "util/logging.hh"

namespace pgss::core
{

PgssController::PgssController(const PgssConfig &config)
    : config_(config)
{
    util::panicIf(config.bbv_period == 0, "bbv_period must be nonzero");
    util::panicIf(sim::kSampleOps > config.bbv_period,
                  "sample window does not fit in the BBV period");
}

void
PgssController::registerStats(obs::Group &parent) const
{
    obs::Group &g = parent.child("pgss", "PGSS sampling controller");
    g.addCounter("periods", "BBV periods classified",
                 [this] { return counters_.periods; });
    g.addCounter("samples", "detailed samples taken",
                 [this] { return counters_.samples; });
    g.addCounter("phases", "phases created",
                 [this] { return counters_.phases; });
    g.addCounter("phase_changes", "period-to-period transitions",
                 [this] { return counters_.phase_changes; });
}

PgssResult
PgssController::run(sim::SimulationEngine &engine)
{
    PGSS_SPAN("sampling.pgss", Bench);
    PgssResult res;
    PhaseTable table(config_.compare_last_first);
    // Low-discrepancy (golden-ratio) offset sequence: successive
    // samples stratify across the period instead of relying on luck,
    // so micro-behaviours commensurate with the period are covered
    // in proportion after only a few samples. The start is fixed, so
    // every run of one program and config places samples identically.
    constexpr double golden = 0.6180339887498949;
    constexpr double jitter_start = (0x5a3c1e7 % 1024) / 1024.0;
    double jitter_phase = jitter_start;

    engine.setHashedBbvEnabled(true);

    // Each controller run is one named timeline run: the period-by-
    // period phase classifications and, per phase, the CI-convergence
    // curve (one point per credited sample).
    obs::TimelineRecorder *tl = obs::timelines();
    const obs::TimelineHandle tl_run =
        tl ? tl->beginRun("pgss") : obs::TimelineHandle{};

    bool sample_next_period = false;

    while (!engine.halted()) {
        // ---- One BBV sampling period, optionally containing a
        // detailed sample at a (jittered) offset.
        std::uint64_t chunk_ops = 0;
        sim::SampleResult sample; // no measured ops without a sample

        if (sample_next_period) {
            const std::uint64_t slack =
                config_.bbv_period - sim::kSampleOps;
            std::uint64_t offset = 0;
            if (config_.jitter_samples && slack > 0) {
                jitter_phase += golden;
                jitter_phase -= static_cast<std::uint64_t>(
                    jitter_phase);
                offset = static_cast<std::uint64_t>(jitter_phase *
                                                    slack);
            }
            if (offset > 0)
                chunk_ops +=
                    engine.run(offset, sim::SimMode::FunctionalWarm)
                        .ops;
            sample = engine.takeSample();
            chunk_ops += sample.ops;
            const std::uint64_t rest =
                config_.bbv_period - offset - sample.ops;
            if (rest > 0)
                chunk_ops +=
                    engine.run(rest, sim::SimMode::FunctionalWarm).ops;
        } else {
            chunk_ops = engine
                            .run(config_.bbv_period,
                                 sim::SimMode::FunctionalWarm)
                            .ops;
        }
        if (chunk_ops == 0)
            break;

        // ---- Harvest and classify the period's BBV.
        const std::vector<double> bbv = engine.harvestHashedBbv();
        const MatchResult match = table.classify(bbv, config_.threshold);
        Phase &phase = table.phase(match.phase_id);
        phase.addOps(chunk_ops);

        ++counters_.periods;
        if (match.created)
            ++counters_.phases;
        if (match.changed)
            ++counters_.phase_changes;
        if (tl)
            tl->recordPhase(tl_run, engine.totalOps(), match.phase_id);

        // The sample inside this period is credited to the phase the
        // period was classified as.
        const bool have_sample = sample.measured_ops > 0;
        if (have_sample) {
            phase.addSample(sample.cpi, engine.totalOps());
            ++res.n_samples;
            ++counters_.samples;
            res.timeline.push_back(
                {engine.totalOps(), phase.id(), sample.cpi});
        }

        // ---- Decide whether the next period carries a sample
        // (Figure 5: confidence bounds, then sample spreading).
        const bool converged = stats::withinConfidence(
            phase.cpi(), config_.confidence, config_.relative_error,
            config_.min_samples_per_phase);
        // One convergence-curve point per credited sample: the curve
        // of this phase's CI half-width closing (or not) over time.
        if (have_sample && tl) {
            const double mean = phase.cpi().mean();
            const double hw = stats::ciHalfWidth(
                phase.cpi(), config_.confidence);
            const double ci_rel =
                mean != 0.0 ? hw / std::abs(mean) : hw;
            tl->recordConvergence(tl_run, phase.id(),
                                  engine.totalOps(),
                                  phase.sampleCount(), mean, ci_rel,
                                  converged);
        }
        const bool spaced =
            phase.sampleCount() == 0 ||
            engine.totalOps() - phase.lastSampleOp() >=
                config_.min_sample_spacing;
        sample_next_period = !converged && spaced;
    }

    engine.setHashedBbvEnabled(false);

    // ---- Estimate: occupancy-weighted per-phase CPI means. Phases
    // that never received a sample (typically one-period transition
    // phases, whose sampling opportunity fell into the following,
    // differently-classified period) donate their weight to the
    // nearest sampled phase by BBV angle, so no execution weight is
    // silently dropped from the stratified estimate.
    std::vector<double> weights(table.size());
    for (const Phase &p : table.phases())
        weights[p.id()] = static_cast<double>(p.ops());
    for (const Phase &p : table.phases()) {
        if (p.sampleCount() > 0 || weights[p.id()] == 0.0)
            continue;
        double best_angle = std::numeric_limits<double>::max();
        std::uint32_t nearest = p.id();
        for (const Phase &q : table.phases()) {
            if (q.sampleCount() == 0)
                continue;
            const double a = bbv::angleBetweenUnit(p.centroid(),
                                                   q.centroid());
            if (a < best_angle) {
                best_angle = a;
                nearest = q.id();
            }
        }
        if (nearest != p.id()) {
            weights[nearest] += weights[p.id()];
            weights[p.id()] = 0.0;
        }
    }

    stats::StratifiedEstimator est;
    for (const Phase &p : table.phases()) {
        stats::Stratum s;
        s.samples = p.cpi();
        s.weight = weights[p.id()];
        est.addStratum(s);

        PhaseSummary ps;
        ps.id = p.id();
        ps.member_periods = p.memberPeriods();
        ps.ops = p.ops();
        ps.samples = p.sampleCount();
        ps.mean_cpi = p.cpi().mean();
        ps.cpi_cov = p.cpi().cov();
        res.phases.push_back(ps);
    }

    res.est_cpi = est.mean();
    res.est_ipc = res.est_cpi > 0.0 ? 1.0 / res.est_cpi : 0.0;
    res.total_ops = engine.totalOps();
    res.n_phases = table.size();
    res.n_phase_changes = table.phaseChanges();
    res.mode_ops = engine.modeOps();
    res.detailed_ops = engine.modeOps().detailed();
    return res;
}

} // namespace pgss::core
