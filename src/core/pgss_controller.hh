/**
 * @file
 * The PGSS-Sim controller: the paper's Figure-5 flow chart driving a
 * SimulationEngine. Fast-forward one BBV period in functional-warming
 * mode while tracking the hashed BBV; classify the period into a
 * phase; if the phase's CPI confidence interval is still open and its
 * last sample is at least the spacing distance behind, run the
 * SMARTS-style detailed warm-up and measured window and credit the
 * observation to the phase. Every period is logged; the program
 * estimate, the occupancy-weighted combination of per-phase sample
 * means, is computed from that log after the run.
 */

#ifndef PGSS_CORE_PGSS_CONTROLLER_HH
#define PGSS_CORE_PGSS_CONTROLLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pgss_config.hh"
#include "sim/engine.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::core
{

/**
 * One BBV period of a run, in execution order: where it started, how
 * long it ran, the phase it was classified as, and the detailed sample
 * measured inside it, if any. The run's estimate, phase summaries and
 * counts are all computed from these records.
 */
struct PeriodRecord
{
    std::uint64_t start_op = 0;      ///< global op count at period start
    std::uint64_t ops = 0;           ///< ops the period ran
    std::uint32_t phase_id = 0;      ///< phase it was classified as
    bool sampled = false;            ///< a sample was measured in it
    std::uint64_t sample_offset = 0; ///< sample start, ops after start_op
    double cpi = 0.0;                ///< the sample's CPI (0 if none)
};

/** Summary of one phase at the end of a run. */
struct PhaseSummary
{
    std::uint32_t id = 0;
    std::uint64_t member_periods = 0;
    std::uint64_t ops = 0;
    std::uint64_t samples = 0;
    double mean_cpi = 0.0;
    double cpi_cov = 0.0;
};

/** Everything a PGSS run produces. */
struct PgssResult
{
    double est_cpi = 0.0;
    double est_ipc = 0.0;
    std::uint64_t total_ops = 0;

    std::uint64_t n_phases = 0;
    std::uint64_t n_phase_changes = 0;
    std::uint64_t n_samples = 0;
    std::uint64_t detailed_ops = 0; ///< warm-up + measured windows
    sim::ModeOps mode_ops;

    std::vector<PhaseSummary> phases;  ///< summarizePhases(periods)
    std::vector<PeriodRecord> periods; ///< one per BBV period
    std::vector<std::vector<double>> centroids; ///< final, by phase id
};

/** Per-phase summaries of @p periods for phase ids 0..n_phases-1. */
std::vector<PhaseSummary>
summarizePhases(const std::vector<PeriodRecord> &periods,
                std::size_t n_phases);

/**
 * The PGSS estimate: the occupancy-weighted mean of the sampled
 * phases' mean CPIs. A phase without a sample (typically a
 * one-period transition phase, whose sampling opportunity fell into
 * the next, differently-classified period) donates its ops to the
 * sampled phase whose centroid is nearest by BBV angle, so no
 * execution weight is dropped. 0 when nothing was sampled.
 */
double estimateCpi(const std::vector<PhaseSummary> &phases,
                   const std::vector<std::vector<double>> &centroids);

/**
 * The sampling-decision counts registerStats() exposes. Unlike a
 * PgssResult they accumulate across run() calls on the same
 * controller, so one registry entry covers every run it made. Each
 * run adds its counts when it finishes.
 */
struct ControllerCounters
{
    std::uint64_t periods = 0;
    std::uint64_t samples = 0;
    std::uint64_t phases = 0;
    std::uint64_t phase_changes = 0;
};

/** Runs PGSS-Sim over one engine. */
class PgssController
{
  public:
    explicit PgssController(const PgssConfig &config = {});

    /**
     * Drive @p engine from its current position to completion and
     * return the PGSS estimate. The engine must be freshly
     * constructed (no prior detailed execution) for the per-mode
     * accounting to equal the technique's cost.
     */
    PgssResult run(sim::SimulationEngine &engine);

    const PgssConfig &config() const { return config_; }

    /**
     * Register the sampling-decision counters (periods, samples,
     * phases, phase changes) into a "pgss" child of @p parent. The
     * controller must outlive dumps of the enclosing registry.
     */
    void registerStats(obs::Group &parent) const;

  private:
    PgssConfig config_;
    ControllerCounters counters_;
};

} // namespace pgss::core

#endif // PGSS_CORE_PGSS_CONTROLLER_HH
