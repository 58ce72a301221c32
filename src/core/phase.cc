#include "core/phase.hh"

#include "bbv/bbv_math.hh"

namespace pgss::core
{

Phase::Phase(std::uint32_t id, std::vector<double> first_bbv)
    : id_(id), centroid_(first_bbv), sum_(std::move(first_bbv))
{
    bbv::normalizeL2(centroid_);
}

void
Phase::addMember(const std::vector<double> &bbv)
{
    for (std::size_t i = 0; i < sum_.size() && i < bbv.size(); ++i)
        sum_[i] += bbv[i];
    centroid_ = sum_;
    bbv::normalizeL2(centroid_);
}

void
Phase::addSample(double cpi, std::uint64_t at_op)
{
    cpi_.add(cpi);
    last_sample_op_ = at_op;
}

} // namespace pgss::core
