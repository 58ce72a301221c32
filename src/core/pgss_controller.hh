/**
 * @file
 * The PGSS-Sim controller: the paper's Figure-5 flow chart driving a
 * SimulationEngine. Fast-forward one BBV period in functional-warming
 * mode while tracking the hashed BBV; classify the period into a
 * phase; if the phase's CPI confidence interval is still open and its
 * last sample is at least the spacing distance behind, run the
 * SMARTS-style detailed warm-up and measured window and credit the
 * observation to the phase. The program estimate is the
 * occupancy-weighted combination of per-phase sample means.
 */

#ifndef PGSS_CORE_PGSS_CONTROLLER_HH
#define PGSS_CORE_PGSS_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/adaptive_threshold.hh"
#include "core/pgss_config.hh"
#include "core/phase_table.hh"
#include "sim/engine.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::core
{

/** One entry of the optional sample timeline (Figure-1 output). */
struct SampleEvent
{
    std::uint64_t at_op = 0;     ///< global op position of the sample
    std::uint32_t phase_id = 0;  ///< phase it was credited to
    double cpi = 0.0;            ///< measured CPI
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

    double final_threshold = 0.0; ///< after adaptation (if enabled)
    std::uint32_t threshold_adjustments = 0;

    std::vector<PhaseSummary> phases;
    std::vector<SampleEvent> timeline; ///< when record_timeline set
};

/**
 * Counters a controller updates as it runs, so registered stats (and
 * the timeline recorder's counter snapshots) see sampling progress
 * without waiting for the PgssResult. Accumulates across run() calls
 * on the same controller.
 */
struct ControllerCounters
{
    std::uint64_t periods = 0;
    std::uint64_t samples = 0;
    std::uint64_t phases = 0;
    std::uint64_t phase_changes = 0;
    std::uint64_t threshold_adjustments = 0;
    double threshold = 0.0; ///< current angle threshold (radians)
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

    /** Live sampling-progress counters. */
    const ControllerCounters &counters() const { return counters_; }

    /**
     * Register the sampling-decision counters (periods, samples,
     * phases, threshold moves) into a "pgss" child of @p parent. The
     * controller must outlive dumps of the enclosing registry.
     */
    void registerStats(obs::Group &parent) const;

  private:
    PgssConfig config_;
    ControllerCounters counters_;
};

} // namespace pgss::core

#endif // PGSS_CORE_PGSS_CONTROLLER_HH
