#include "analysis/phase_sequence.hh"

#include "core/phase_table.hh"
#include "stats/running_stats.hh"

namespace pgss::analysis
{

PhaseSequence
classifyProfile(const IntervalProfile &profile, double threshold)
{
    PhaseSequence seq;
    core::PhaseTable table;
    seq.assignment.reserve(profile.intervals());

    for (std::size_t i = 0; i < profile.intervals(); ++i) {
        const std::uint32_t id =
            table.classify(profile.bbvUnit(i), threshold);
        if (id == seq.first_interval.size()) // a new phase opened
            seq.first_interval.push_back(
                static_cast<std::uint32_t>(i));
        if (i > 0 && id != seq.assignment.back())
            ++seq.n_changes;
        seq.assignment.push_back(id);
    }

    seq.n_phases = static_cast<std::uint32_t>(table.size());
    seq.occupancy.assign(seq.n_phases, 0);
    for (std::uint32_t p : seq.assignment)
        ++seq.occupancy[p];
    return seq;
}

PhaseCharacteristics
phaseCharacteristics(const IntervalProfile &profile, double threshold)
{
    const PhaseSequence seq = classifyProfile(profile, threshold);

    PhaseCharacteristics pc;
    pc.n_phases = seq.n_phases;
    pc.n_changes = seq.n_changes;

    const double total_ops = static_cast<double>(
        profile.intervals() * profile.intervalOps());
    pc.avg_interval_ops =
        total_ops / static_cast<double>(seq.n_changes + 1);

    // Within-phase IPC dispersion relative to the overall sigma.
    std::vector<stats::RunningStats> per_phase(seq.n_phases);
    for (std::size_t i = 0; i < profile.intervals(); ++i)
        per_phase[seq.assignment[i]].add(profile.intervalIpc(i));

    const double overall_sigma = profile.ipcStats().stddev();
    double num = 0.0;
    double den = 0.0;
    for (std::uint32_t p = 0; p < seq.n_phases; ++p) {
        const double w = static_cast<double>(seq.occupancy[p]);
        num += w * per_phase[p].stddev();
        den += w;
    }
    const double weighted_sigma = den > 0.0 ? num / den : 0.0;
    pc.within_phase_sigma =
        overall_sigma > 0.0 ? weighted_sigma / overall_sigma : 0.0;
    return pc;
}

} // namespace pgss::analysis
