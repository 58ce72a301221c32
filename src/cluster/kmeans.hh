/**
 * @file
 * Lloyd's k-means with k-means++ seeding, the clustering engine
 * behind the offline SimPoint baseline. Deterministic given a seed;
 * empty clusters are re-seeded from the point farthest from its
 * centroid.
 */

#ifndef PGSS_CLUSTER_KMEANS_HH
#define PGSS_CLUSTER_KMEANS_HH

#include <cstdint>
#include <vector>

namespace pgss::cluster
{

/** Result of one clustering. */
struct KMeansResult
{
    std::vector<std::uint32_t> assignment;       ///< point -> cluster
    std::vector<std::vector<double>> centroids;  ///< [k][dims]
    std::vector<std::uint32_t> sizes;            ///< points per cluster
    double inertia = 0.0; ///< sum of squared distances to centroids
    std::uint32_t iterations = 0;

    /**
     * Index of the member point closest to each centroid — the
     * "simulation point" SimPoint details for the cluster.
     */
    std::vector<std::uint32_t> representatives;
};

/**
 * Cluster @p points into @p k clusters.
 * @param points dense points, all the same dimensionality.
 * @param k cluster count; clamped to the number of points.
 */
KMeansResult kMeans(const std::vector<std::vector<double>> &points,
                    std::uint32_t k, std::uint32_t max_iterations = 100,
                    std::uint64_t seed = 0xc1a55e5);

} // namespace pgss::cluster

#endif // PGSS_CLUSTER_KMEANS_HH
