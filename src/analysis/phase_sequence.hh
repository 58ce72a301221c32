/**
 * @file
 * Phase classification over a recorded profile: replays the PGSS
 * phase-matching policy over a profile's BBV sequence at a given
 * threshold, without running any simulation. Feeds Figure 10 (phase
 * characteristics vs threshold) and the Online SimPoint baseline's
 * perfect phase predictor.
 */

#ifndef PGSS_ANALYSIS_PHASE_SEQUENCE_HH
#define PGSS_ANALYSIS_PHASE_SEQUENCE_HH

#include <cstdint>
#include <vector>

#include "analysis/interval_profile.hh"

namespace pgss::analysis
{

/** A profile's interval-by-interval phase assignment. */
struct PhaseSequence
{
    std::vector<std::uint32_t> assignment; ///< interval -> phase id
    std::uint32_t n_phases = 0;
    std::uint64_t n_changes = 0; ///< transitions between phases

    /** Occupancy (interval count) per phase id. */
    std::vector<std::uint64_t> occupancy;

    /** First interval index at which each phase appears. */
    std::vector<std::uint32_t> first_interval;
};

/**
 * Classify every interval of @p profile with the PGSS matching policy
 * (previous phase first, then the whole table) at @p threshold
 * radians.
 */
PhaseSequence classifyProfile(const IntervalProfile &profile,
                              double threshold);

/** Figure-10 statistics for one threshold. */
struct PhaseCharacteristics
{
    std::uint32_t n_phases = 0;
    std::uint64_t n_changes = 0;

    /** Mean ops between phase transitions. */
    double avg_interval_ops = 0.0;

    /**
     * Occupancy-weighted within-phase IPC standard deviation, in
     * units of the benchmark's overall interval-IPC sigma (1.0 means
     * phases explain none of the variation).
     */
    double within_phase_sigma = 0.0;
};

/** Compute the Figure-10 statistics at @p threshold. */
PhaseCharacteristics
phaseCharacteristics(const IntervalProfile &profile, double threshold);

} // namespace pgss::analysis

#endif // PGSS_ANALYSIS_PHASE_SEQUENCE_HH
