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
    util::panicIf(config.detailed_sample == 0,
                  "detailed_sample must be nonzero");
    util::panicIf(config.detailed_warmup + config.detailed_sample >
                      config.bbv_period,
                  "sample window does not fit in the BBV period");
    counters_.threshold = config.threshold;
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
    g.addCounter("threshold_adjustments",
                 "adaptive threshold moves",
                 [this] { return counters_.threshold_adjustments; });
    g.addScalar("threshold", "current BBV angle threshold (radians)",
                [this] { return counters_.threshold; });
}

PgssResult
PgssController::run(sim::SimulationEngine &engine)
{
    PGSS_SPAN("sampling.pgss", Bench);
    PgssResult res;
    PhaseTable table(config_.compare_last_first);
    AdaptiveThreshold adaptive(config_.adaptive, config_.threshold);
    // Low-discrepancy (golden-ratio) offset sequence: successive
    // samples stratify across the period instead of relying on luck,
    // so micro-behaviours commensurate with the period are covered
    // in proportion after only a few samples.
    constexpr double golden = 0.6180339887498949;
    double jitter_phase =
        (config_.jitter_seed % 1024) / 1024.0;

    engine.setHashedBbvEnabled(true);

    // Each controller run is one named timeline run: the period-by-
    // period phase classifications and, per phase, the CI-convergence
    // curve (one point per credited sample).
    if (obs::TimelineRecorder *tl = obs::timelines())
        tl->beginRun("pgss");

    const std::uint64_t win =
        config_.detailed_warmup + config_.detailed_sample;
    bool sample_next_period = false;

    while (!engine.halted()) {
        // ---- One BBV sampling period, optionally containing a
        // detailed sample at a (jittered) offset.
        std::uint64_t chunk_ops = 0;
        bool have_sample = false;
        double sample_cpi = 0.0;

        if (sample_next_period) {
            const std::uint64_t slack = config_.bbv_period - win;
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
            const sim::RunResult warm = engine.run(
                config_.detailed_warmup, sim::SimMode::DetailedWarm);
            const sim::RunResult meas = engine.run(
                config_.detailed_sample,
                sim::SimMode::DetailedMeasure);
            chunk_ops += warm.ops + meas.ops;
            if (meas.ops > 0) {
                have_sample = true;
                sample_cpi = static_cast<double>(meas.cycles) /
                             static_cast<double>(meas.ops);
            }
            const std::uint64_t rest =
                config_.bbv_period - offset - warm.ops - meas.ops;
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
        const MatchResult match =
            table.classify(bbv, adaptive.threshold());
        Phase &phase = table.phase(match.phase_id);
        phase.addOps(chunk_ops);

        ++counters_.periods;
        if (match.created)
            ++counters_.phases;
        if (match.changed)
            ++counters_.phase_changes;
        obs::TimelineRecorder *tl = obs::timelines();
        if (tl)
            tl->recordPhase(engine.totalOps(), match.phase_id);

        // The sample inside this period is credited to the phase the
        // period was classified as.
        if (have_sample) {
            phase.addSample(sample_cpi, engine.totalOps());
            ++res.n_samples;
            ++counters_.samples;
            if (config_.record_timeline)
                res.timeline.push_back(
                    {engine.totalOps(), phase.id(), sample_cpi});
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
            tl->recordConvergence(phase.id(), engine.totalOps(),
                                  phase.sampleCount(), mean, ci_rel,
                                  converged);
        }
        const bool spaced =
            !config_.spread_samples ||
            phase.sampleCount() == 0 ||
            engine.totalOps() - phase.lastSampleOp() >=
                config_.min_sample_spacing;
        sample_next_period = !converged && spaced;

        const double threshold_before = adaptive.threshold();
        adaptive.onPeriod(table, match.created);
        if (adaptive.threshold() != threshold_before) {
            ++counters_.threshold_adjustments;
            counters_.threshold = adaptive.threshold();
            if (tl)
                tl->recordThreshold(engine.totalOps(),
                                    adaptive.threshold());
        }
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
    res.final_threshold = adaptive.threshold();
    res.threshold_adjustments = adaptive.adjustments();
    return res;
}

} // namespace pgss::core
