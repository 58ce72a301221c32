#include "timing/branch_unit.hh"

#include "obs/stats.hh"

namespace pgss::timing
{

BranchUnit::BranchUnit(const BranchUnitConfig &config)
    : config_(config),
      predictor_(config.predictor_entries, config.history_bits),
      btb_(config.btb_entries), ras_(config.ras_depth)
{
}

void
BranchUnit::registerStats(obs::Group &group) const
{
    group.addCounter("lookups", "conditional branches predicted",
                     [this] { return stats_.branches; });
    group.addCounter("jumps", "unconditional transfers predicted",
                     [this] { return stats_.jumps; });
    group.addCounter("mispredicts",
                     "wrong direction or wrong/missing target",
                     [this] { return stats_.mispredicts; });
    group.addCounter("taken", "taken control transfers",
                     [this] { return stats_.taken; });
    group.addFormula("mispredict_ratio",
                     "mispredicts / conditional branches",
                     [this] { return stats_.mispredictRatio(); });

    obs::Group &btb = group.child("btb", "branch target buffer");
    btb.addCounter("lookups", "BTB lookups",
                   [this] { return btb_.stats().lookups; });
    btb.addCounter("hits", "BTB tag hits",
                   [this] { return btb_.stats().hits; });
    btb.addFormula("hit_ratio", "hits / lookups",
                   [this] { return btb_.stats().hitRatio(); });

    obs::Group &ras = group.child("ras", "return address stack");
    ras.addCounter("pushes", "calls pushed",
                   [this] { return ras_.stats().pushes; });
    ras.addCounter("pops", "returns predicted",
                   [this] { return ras_.stats().pops; });
    ras.addCounter("overflows", "pushes that wrapped a full stack",
                   [this] { return ras_.stats().overflows; });
    ras.addCounter("underflows", "pops of an empty stack",
                   [this] { return ras_.stats().underflows; });
    ras.addCounter("mispredicts", "returns the RAS got wrong",
                   [this] { return stats_.ras_mispredicts; });
}

void
BranchUnit::reset()
{
    predictor_.reset();
    btb_.reset();
    ras_.reset();
}

BranchUnit::State
BranchUnit::state() const
{
    return {predictor_.state(), btb_.state()};
}

void
BranchUnit::setState(const State &st)
{
    predictor_.setState(st.predictor);
    btb_.setState(st.btb);
    ras_.reset(); // transient; not part of checkpoints
}

} // namespace pgss::timing
