#include "cluster/kmeans.hh"

#include <algorithm>
#include <limits>

#include "obs/spans.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace pgss::cluster
{

namespace
{

double
sqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

/** k-means++ seeding. */
std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>> &points,
              std::uint32_t k, util::Rng &rng)
{
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);
    centroids.push_back(points[rng.nextBounded(points.size())]);

    std::vector<double> d2(points.size(),
                           std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            d2[i] = std::min(d2[i], sqDist(points[i],
                                           centroids.back()));
            total += d2[i];
        }
        if (total <= 0.0) {
            // All remaining points coincide with chosen centroids.
            centroids.push_back(
                points[rng.nextBounded(points.size())]);
            continue;
        }
        double pick = rng.nextDouble() * total;
        std::size_t chosen = points.size() - 1;
        for (std::size_t i = 0; i < points.size(); ++i) {
            pick -= d2[i];
            if (pick <= 0.0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

} // anonymous namespace

KMeansResult
kMeans(const std::vector<std::vector<double>> &points, std::uint32_t k,
       std::uint32_t max_iterations, std::uint64_t seed)
{
    PGSS_SPAN("cluster.kmeans", Cluster);
    util::panicIf(points.empty(), "kMeans on an empty point set");
    const std::size_t n = points.size();
    const std::size_t dims = points[0].size();
    for (const auto &p : points)
        util::panicIf(p.size() != dims,
                      "kMeans points have mixed dimensionality");
    k = std::min<std::uint32_t>(k, static_cast<std::uint32_t>(n));
    util::panicIf(k == 0, "kMeans requires k >= 1");

    util::Rng rng(seed);
    KMeansResult res;
    res.centroids = seedCentroids(points, k, rng);
    res.assignment.assign(n, 0);

    for (std::uint32_t iter = 0; iter < max_iterations; ++iter) {
        ++res.iterations;
        bool changed = false;

        // Assign.
        for (std::size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::max();
            std::uint32_t best_c = 0;
            for (std::uint32_t c = 0; c < k; ++c) {
                const double d = sqDist(points[i], res.centroids[c]);
                if (d < best) {
                    best = d;
                    best_c = c;
                }
            }
            if (res.assignment[i] != best_c) {
                res.assignment[i] = best_c;
                changed = true;
            }
        }

        // Update.
        std::vector<std::vector<double>> sums(
            k, std::vector<double>(dims, 0.0));
        std::vector<std::uint32_t> counts(k, 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++counts[res.assignment[i]];
            for (std::size_t d = 0; d < dims; ++d)
                sums[res.assignment[i]][d] += points[i][d];
        }
        for (std::uint32_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Re-seed an empty cluster from the point farthest
                // from its assigned centroid.
                double worst = -1.0;
                std::size_t far = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    const double d = sqDist(
                        points[i], res.centroids[res.assignment[i]]);
                    if (d > worst) {
                        worst = d;
                        far = i;
                    }
                }
                res.centroids[c] = points[far];
                res.assignment[far] = c;
                changed = true;
                continue;
            }
            for (std::size_t d = 0; d < dims; ++d)
                res.centroids[c][d] = sums[c][d] / counts[c];
        }

        if (!changed)
            break;
    }

    // Final statistics: sizes, inertia, representatives.
    res.sizes.assign(k, 0);
    res.representatives.assign(k, 0);
    std::vector<double> best_d(k, std::numeric_limits<double>::max());
    res.inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = res.assignment[i];
        const double d = sqDist(points[i], res.centroids[c]);
        res.inertia += d;
        ++res.sizes[c];
        if (d < best_d[c]) {
            best_d[c] = d;
            res.representatives[c] = static_cast<std::uint32_t>(i);
        }
    }
    return res;
}

} // namespace pgss::cluster
