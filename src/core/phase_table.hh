/**
 * @file
 * The phase table and matching policy of the Figure-5 flow chart: a
 * harvested BBV is first compared against the previous period's phase
 * (no change is the common case), then against every known phase; if
 * nothing falls within the angle threshold a new phase is created.
 */

#ifndef PGSS_CORE_PHASE_TABLE_HH
#define PGSS_CORE_PHASE_TABLE_HH

#include <cstdint>
#include <vector>

#include "core/phase.hh"

namespace pgss::core
{

/** All phases seen so far plus the classification logic. */
class PhaseTable
{
  public:
    /**
     * @param compare_last_first check the previous phase before
     *        scanning the whole table (the paper's fast path).
     */
    explicit PhaseTable(bool compare_last_first = true);

    /**
     * Classify @p unit_bbv (must be L2-normalised) under @p threshold
     * radians and fold it into the winning phase's centroid. Returns
     * the phase id; a new phase gets the next id, size() - 1.
     */
    std::uint32_t classify(const std::vector<double> &unit_bbv,
                           double threshold);

    /** Number of phases. */
    std::size_t size() const { return phases_.size(); }

    /** Phase by id. */
    Phase &phase(std::uint32_t id) { return phases_[id]; }
    const Phase &phase(std::uint32_t id) const { return phases_[id]; }

    /** All phases. */
    const std::vector<Phase> &phases() const { return phases_; }

  private:
    bool compare_last_first_;
    std::vector<Phase> phases_;
    std::uint32_t current_ = 0; ///< phase of the last classification
};

} // namespace pgss::core

#endif // PGSS_CORE_PHASE_TABLE_HH
