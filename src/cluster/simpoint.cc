#include "cluster/simpoint.hh"

#include "cluster/random_projection.hh"
#include "util/logging.hh"

namespace pgss::cluster
{

SimPointSelection
selectSimPoints(const std::vector<bbv::SparseBbv> &interval_bbvs,
                std::uint32_t k)
{
    util::panicIf(interval_bbvs.empty(),
                  "selectSimPoints with no intervals");

    const RandomProjection proj(kProjectionDims, kSimPointSeed);
    const auto points = proj.projectAll(interval_bbvs);

    SimPointSelection sel;
    sel.clustering = kMeans(points, k, 100, kSimPointSeed);
    const std::size_t n = interval_bbvs.size();
    const auto clusters =
        static_cast<std::uint32_t>(sel.clustering.centroids.size());
    sel.rep_intervals = sel.clustering.representatives;
    sel.weights.resize(clusters);
    for (std::uint32_t c = 0; c < clusters; ++c)
        sel.weights[c] =
            static_cast<double>(sel.clustering.sizes[c]) /
            static_cast<double>(n);
    return sel;
}

} // namespace pgss::cluster
