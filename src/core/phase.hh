/**
 * @file
 * One detected program phase: its BBV signature (a running centroid
 * of member vectors) and the detailed-sample CPI statistics the
 * per-phase confidence test runs on.
 */

#ifndef PGSS_CORE_PHASE_HH
#define PGSS_CORE_PHASE_HH

#include <cstdint>
#include <vector>

#include "stats/running_stats.hh"

namespace pgss::core
{

/** A phase profile. */
class Phase
{
  public:
    /** Create phase @p id from its first member BBV. */
    Phase(std::uint32_t id, std::vector<double> first_bbv);

    /** Phase identifier (creation order). */
    std::uint32_t id() const { return id_; }

    /** L2-normalised centroid of member BBVs. */
    const std::vector<double> &centroid() const { return centroid_; }

    /** Fold another member BBV into the centroid. */
    void addMember(const std::vector<double> &bbv);

    /** Detailed-sample CPI observations. */
    const stats::RunningStats &cpi() const { return cpi_; }

    /** Record a detailed sample taken at global op count @p at_op. */
    void addSample(double cpi, std::uint64_t at_op);

    /** Global op count of the most recent sample (0 if none). */
    std::uint64_t lastSampleOp() const { return last_sample_op_; }

    /** Number of detailed samples taken in this phase. */
    std::uint64_t sampleCount() const { return cpi_.count(); }

  private:
    std::uint32_t id_;
    std::vector<double> centroid_;
    std::vector<double> sum_; ///< unnormalised running sum
    stats::RunningStats cpi_;
    std::uint64_t last_sample_op_ = 0;
};

} // namespace pgss::core

#endif // PGSS_CORE_PHASE_HH
