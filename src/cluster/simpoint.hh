/**
 * @file
 * The offline SimPoint analysis: project per-interval BBVs, cluster
 * with k-means, and select one representative interval per cluster
 * with a weight equal to the cluster's share of execution. Program
 * performance is then estimated as the weighted sum of the
 * representatives' detailed-simulation results.
 */

#ifndef PGSS_CLUSTER_SIMPOINT_HH
#define PGSS_CLUSTER_SIMPOINT_HH

#include <cstdint>
#include <vector>

#include "bbv/full_bbv.hh"
#include "cluster/kmeans.hh"

namespace pgss::cluster
{

/** Width of SimPoint's random projection of the BBVs. */
inline constexpr std::uint32_t kProjectionDims = 15;
/** Seed of SimPoint's projection and of its k-means++ seeding. */
inline constexpr std::uint64_t kSimPointSeed = 0xc1a55e5;

/** The chosen simulation points. */
struct SimPointSelection
{
    std::vector<std::uint32_t> rep_intervals; ///< one per cluster
    std::vector<double> weights;              ///< sum to 1
    KMeansResult clustering;
};

/**
 * Run the SimPoint selection: project to kProjectionDims dimensions
 * and cluster, both seeded with kSimPointSeed.
 * @param interval_bbvs per-interval full BBVs, in execution order.
 * @param k number of clusters (phases).
 */
SimPointSelection
selectSimPoints(const std::vector<bbv::SparseBbv> &interval_bbvs,
                std::uint32_t k);

} // namespace pgss::cluster

#endif // PGSS_CLUSTER_SIMPOINT_HH
