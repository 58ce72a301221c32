/**
 * @file
 * Parameters of Phase-Guided Small-Sample Simulation. Defaults are
 * the paper's: 100k-op BBV sampling periods during functional
 * fast-forwarding, a 0.05*pi BBV angle threshold, per-phase
 * confidence stopping (3% at 95%), and at most one sample per phase
 * per million ops to spread samples across a phase's occurrences.
 * Each sample is the engine's one detailed-sample unit (3,000-op
 * detailed warm-up plus 1,000-op measured window, sim/engine.hh),
 * which SMARTS and TurboSMARTS take too. The threshold is fixed for
 * the whole run, as in every experiment of the paper.
 */

#ifndef PGSS_CORE_PGSS_CONFIG_HH
#define PGSS_CORE_PGSS_CONFIG_HH

#include <cmath>
#include <cstdint>

#include "sim/engine.hh"

namespace pgss::core
{

/** All PGSS-Sim knobs; the sample window and CI level are fixed. */
struct PgssConfig
{
    /** The detailed sample's two parts (sim::kSampleOps in all). */
    static constexpr std::uint64_t detailed_warmup = sim::kSampleWarmupOps;
    static constexpr std::uint64_t detailed_sample = sim::kSampleMeasureOps;

    std::uint64_t bbv_period = 100'000; ///< FF/BBV period (ops)
    double threshold = 0.05 * M_PI;     ///< BBV angle (radians)

    /**
     * Per-phase stopping bounds. The paper states phases stop being
     * sampled once "within confidence bounds" without giving the
     * levels; 95% with a 3% half-width and a 4-sample floor keeps
     * stable phases cheap while preventing false convergence from
     * two coincidentally-equal samples in a polymodal phase. The
     * confidence is fixed; tests loosen the half-width target.
     */
    static constexpr double confidence = 0.95; ///< per-phase CI level
    double relative_error = 0.03;  ///< per-phase CI half-width target
    std::uint64_t min_samples_per_phase = 4;

    /**
     * Spread samples: min ops between samples of the same phase. 0
     * turns spreading off (every unconverged period is sampled).
     */
    std::uint64_t min_sample_spacing = 1'000'000;

    /** Compare to the previous period's phase before the full table. */
    bool compare_last_first = true;

    /**
     * Place each sample at an offset inside its period taken from a
     * golden-ratio (low-discrepancy) sequence instead of at the
     * period start. Fixed placement aliases against workloads whose
     * micro-phases (the paper's art/mcf 40-50k-op oscillations) are
     * near-commensurate with the BBV period: consecutive samples land
     * in the same micro-behaviour and the phase CI converges
     * one-sided. Stratified placement is the standard
     * systematic-sampling remedy.
     */
    bool jitter_samples = true;
};

} // namespace pgss::core

#endif // PGSS_CORE_PGSS_CONFIG_HH
