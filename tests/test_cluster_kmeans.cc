/** @file Tests for k-means clustering and BIC model selection. */

#include <set>

#include <gtest/gtest.h>

#include "cluster/kmeans.hh"
#include "util/random.hh"

using namespace pgss::cluster;

namespace
{

/** @p per_cluster points around each of @p k well-separated centres. */
std::vector<std::vector<double>>
separatedBlobs(std::uint32_t k, int per_cluster, double spread,
               std::uint64_t seed,
               std::vector<std::uint32_t> *labels = nullptr)
{
    pgss::util::Rng rng(seed);
    std::vector<std::vector<double>> points;
    for (std::uint32_t c = 0; c < k; ++c) {
        for (int i = 0; i < per_cluster; ++i) {
            points.push_back({c * 10.0 + spread * rng.nextGaussian(),
                              c * -7.0 + spread * rng.nextGaussian()});
            if (labels)
                labels->push_back(c);
        }
    }
    return points;
}

/** Fraction of pairs whose same-cluster relation is preserved. */
double
purity(const std::vector<std::uint32_t> &truth,
       const std::vector<std::uint32_t> &found)
{
    std::uint64_t agree = 0, total = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        for (std::size_t j = i + 1; j < truth.size(); ++j) {
            ++total;
            agree += (truth[i] == truth[j]) == (found[i] == found[j]);
        }
    }
    return static_cast<double>(agree) / total;
}

} // namespace

TEST(KMeans, RecoversSeparatedClusters)
{
    std::vector<std::uint32_t> truth;
    const auto points = separatedBlobs(3, 40, 0.5, 11, &truth);
    const KMeansResult r = kMeans(points, 3);
    EXPECT_GT(purity(truth, r.assignment), 0.99);
    EXPECT_EQ(r.centroids.size(), 3u);
}

TEST(KMeans, Deterministic)
{
    const auto points = separatedBlobs(4, 25, 1.0, 13);
    const KMeansResult a = kMeans(points, 4, 100, 99);
    const KMeansResult b = kMeans(points, 4, 100, 99);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeans, KClampedToPointCount)
{
    const std::vector<std::vector<double>> points = {{0.0}, {1.0}};
    const KMeansResult r = kMeans(points, 10);
    EXPECT_EQ(r.centroids.size(), 2u);
}

TEST(KMeans, SizesSumToPointCount)
{
    const auto points = separatedBlobs(3, 30, 1.0, 17);
    const KMeansResult r = kMeans(points, 5);
    std::uint32_t total = 0;
    for (std::uint32_t s : r.sizes)
        total += s;
    EXPECT_EQ(total, points.size());
}

TEST(KMeans, RepresentativesBelongToTheirClusters)
{
    const auto points = separatedBlobs(3, 30, 0.8, 19);
    const KMeansResult r = kMeans(points, 3);
    for (std::uint32_t c = 0; c < 3; ++c)
        EXPECT_EQ(r.assignment[r.representatives[c]], c);
}

TEST(KMeans, RepresentativeIsNearestMember)
{
    const auto points = separatedBlobs(2, 20, 0.8, 23);
    const KMeansResult r = kMeans(points, 2);
    auto sq = [](const std::vector<double> &a,
                 const std::vector<double> &b) {
        double s = 0;
        for (std::size_t i = 0; i < a.size(); ++i)
            s += (a[i] - b[i]) * (a[i] - b[i]);
        return s;
    };
    for (std::uint32_t c = 0; c < 2; ++c) {
        const double rep_d =
            sq(points[r.representatives[c]], r.centroids[c]);
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (r.assignment[i] == c) {
                EXPECT_GE(sq(points[i], r.centroids[c]) + 1e-12,
                          rep_d);
            }
        }
    }
}

TEST(KMeans, MoreClustersNeverIncreaseInertia)
{
    const auto points = separatedBlobs(4, 25, 2.0, 29);
    double last = 1e300;
    for (std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
        const KMeansResult r = kMeans(points, k);
        EXPECT_LE(r.inertia, last * 1.10) << "k=" << k;
        last = r.inertia;
    }
}

TEST(KMeans, HandlesDuplicatePoints)
{
    std::vector<std::vector<double>> points(50, {1.0, 2.0});
    points.push_back({5.0, 5.0});
    const KMeansResult r = kMeans(points, 2);
    EXPECT_EQ(r.centroids.size(), 2u);
    std::uint32_t nonempty = 0;
    for (std::uint32_t s : r.sizes)
        nonempty += s > 0;
    EXPECT_EQ(nonempty, 2u);
}

TEST(KMeans, SingleCluster)
{
    const auto points = separatedBlobs(1, 20, 1.0, 31);
    const KMeansResult r = kMeans(points, 1);
    EXPECT_EQ(r.sizes[0], 20u);
    // Centroid equals the mean.
    double mx = 0;
    for (const auto &p : points)
        mx += p[0];
    EXPECT_NEAR(r.centroids[0][0], mx / points.size(), 1e-9);
}

TEST(KMeansDeathTest, EmptyInputPanics)
{
    EXPECT_DEATH(kMeans({}, 3), "empty");
}

TEST(KMeansDeathTest, MixedDimensionalityPanics)
{
    EXPECT_DEATH(kMeans({{1.0}, {1.0, 2.0}}, 1), "dimensionality");
}
