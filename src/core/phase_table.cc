#include "core/phase_table.hh"

#include <limits>

#include "bbv/bbv_math.hh"

namespace pgss::core
{

PhaseTable::PhaseTable(bool compare_last_first)
    : compare_last_first_(compare_last_first)
{
}

std::uint32_t
PhaseTable::classify(const std::vector<double> &unit_bbv,
                     double threshold)
{
    if (!phases_.empty()) {
        // Fast path: it is most likely no phase change occurred.
        if (compare_last_first_ &&
            bbv::angleBetweenUnit(unit_bbv, phases_[current_].centroid()) <
                threshold) {
            phases_[current_].addMember(unit_bbv);
            return current_;
        }

        // Full scan: nearest phase within the threshold wins.
        double best_angle = std::numeric_limits<double>::max();
        std::uint32_t best = 0;
        for (std::uint32_t i = 0; i < phases_.size(); ++i) {
            const double a =
                bbv::angleBetweenUnit(unit_bbv, phases_[i].centroid());
            if (a < best_angle) {
                best_angle = a;
                best = i;
            }
        }
        if (best_angle < threshold) {
            phases_[best].addMember(unit_bbv);
            current_ = best;
            return best;
        }
    }

    // No match (or no phase yet): open a new phase.
    current_ = static_cast<std::uint32_t>(phases_.size());
    phases_.emplace_back(current_, unit_bbv);
    return current_;
}

} // namespace pgss::core
