#include "core/pgss_controller.hh"

#include <cmath>
#include <limits>

#include "bbv/bbv_math.hh"
#include "core/phase_table.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "stats/confidence.hh"
#include "stats/running_stats.hh"
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
        PeriodRecord period;
        period.start_op = engine.totalOps();
        sim::SampleResult sample; // no measured ops without a sample

        if (sample_next_period) {
            const std::uint64_t slack =
                config_.bbv_period - sim::kSampleOps;
            if (config_.jitter_samples && slack > 0) {
                jitter_phase += golden;
                jitter_phase -= static_cast<std::uint64_t>(
                    jitter_phase);
                period.sample_offset =
                    static_cast<std::uint64_t>(jitter_phase * slack);
            }
            if (period.sample_offset > 0)
                engine.run(period.sample_offset,
                           sim::SimMode::FunctionalWarm);
            sample = engine.takeSample();
            const std::uint64_t rest =
                config_.bbv_period - period.sample_offset - sample.ops;
            if (rest > 0)
                engine.run(rest, sim::SimMode::FunctionalWarm);
        } else {
            engine.run(config_.bbv_period, sim::SimMode::FunctionalWarm);
        }
        period.ops = engine.totalOps() - period.start_op;
        if (period.ops == 0)
            break;

        // ---- Classify the period's BBV. The sample inside it is
        // credited to the phase the period was classified as.
        period.phase_id =
            table.classify(engine.harvestHashedBbv(), config_.threshold);
        Phase &phase = table.phase(period.phase_id);
        if (tl)
            tl->recordPhase(tl_run, engine.totalOps(), period.phase_id);
        period.sampled = sample.measured_ops > 0;
        if (period.sampled) {
            period.cpi = sample.cpi;
            phase.addSample(sample.cpi, engine.totalOps());
        }
        res.periods.push_back(period);

        // ---- Decide whether the next period carries a sample
        // (Figure 5: confidence bounds, then sample spreading).
        const bool converged = stats::withinConfidence(
            phase.cpi(), config_.confidence, config_.relative_error,
            config_.min_samples_per_phase);
        // One convergence-curve point per credited sample: the curve
        // of this phase's CI half-width closing (or not) over time.
        if (period.sampled && tl) {
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

    // ---- Everything reported is computed from the period log and
    // the final centroids.
    for (const Phase &p : table.phases())
        res.centroids.push_back(p.centroid());
    res.phases = summarizePhases(res.periods, table.size());
    res.est_cpi = estimateCpi(res.phases, res.centroids);
    res.est_ipc = res.est_cpi > 0.0 ? 1.0 / res.est_cpi : 0.0;
    res.total_ops = engine.totalOps();
    res.n_phases = res.phases.size();
    for (const PhaseSummary &p : res.phases)
        res.n_samples += p.samples;
    for (std::size_t i = 1; i < res.periods.size(); ++i)
        if (res.periods[i].phase_id != res.periods[i - 1].phase_id)
            ++res.n_phase_changes;
    res.mode_ops = engine.modeOps();
    res.detailed_ops = engine.modeOps().detailed();

    counters_.periods += res.periods.size();
    counters_.samples += res.n_samples;
    counters_.phases += res.n_phases;
    counters_.phase_changes += res.n_phase_changes;
    return res;
}

std::vector<PhaseSummary>
summarizePhases(const std::vector<PeriodRecord> &periods,
                std::size_t n_phases)
{
    std::vector<PhaseSummary> phases(n_phases);
    std::vector<stats::RunningStats> cpi(n_phases);
    for (const PeriodRecord &p : periods) {
        ++phases[p.phase_id].member_periods;
        phases[p.phase_id].ops += p.ops;
        if (p.sampled)
            cpi[p.phase_id].add(p.cpi);
    }
    for (std::size_t i = 0; i < n_phases; ++i) {
        phases[i].id = static_cast<std::uint32_t>(i);
        phases[i].samples = cpi[i].count();
        phases[i].mean_cpi = cpi[i].mean();
        phases[i].cpi_cov = cpi[i].cov();
    }
    return phases;
}

double
estimateCpi(const std::vector<PhaseSummary> &phases,
            const std::vector<std::vector<double>> &centroids)
{
    // Unsampled phases donate their ops, in id order, to the nearest
    // sampled phase by centroid angle (the first of equals wins).
    std::vector<double> weights(phases.size());
    for (std::size_t p = 0; p < phases.size(); ++p)
        weights[p] = static_cast<double>(phases[p].ops);
    for (std::size_t p = 0; p < phases.size(); ++p) {
        if (phases[p].samples > 0)
            continue;
        double best_angle = std::numeric_limits<double>::max();
        std::size_t nearest = p;
        for (std::size_t q = 0; q < phases.size(); ++q) {
            if (phases[q].samples == 0)
                continue;
            const double a =
                bbv::angleBetweenUnit(centroids[p], centroids[q]);
            if (a < best_angle) {
                best_angle = a;
                nearest = q;
            }
        }
        if (nearest != p)
            weights[nearest] += weights[p];
    }

    double num = 0.0;
    double den = 0.0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
        if (phases[p].samples == 0)
            continue;
        num += weights[p] * phases[p].mean_cpi;
        den += weights[p];
    }
    return den > 0.0 ? num / den : 0.0;
}

} // namespace pgss::core
