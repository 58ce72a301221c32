/**
 * @file
 * Front-end branch machinery shared by functional fast-forwarding and
 * detailed simulation: tournament direction predictor, BTB, and a
 * return-address stack. Keeping one instance for both modes is what
 * makes SMARTS/PGSS functional warming meaningful — predictor state
 * evolves identically whether or not timing is being modelled.
 */

#ifndef PGSS_TIMING_BRANCH_UNIT_HH
#define PGSS_TIMING_BRANCH_UNIT_HH

#include <cstdint>

#include "branch/btb.hh"
#include "branch/predictor.hh"
#include "cpu/dyn_inst.hh"
#include "isa/program.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::timing
{

/** Branch-unit sizing. */
struct BranchUnitConfig
{
    std::uint32_t predictor_entries = 4096;
    std::uint32_t history_bits = 12;
    std::uint32_t btb_entries = 2048;
    std::uint32_t ras_depth = 16;
    /** Link register: Jal rd==link is a call, Jalr rs1==link a return. */
    std::uint8_t link_reg = 1;
};

/** Aggregate branch statistics. */
struct BranchStats
{
    std::uint64_t branches = 0;      ///< conditional branches seen
    std::uint64_t jumps = 0;         ///< unconditional transfers seen
    std::uint64_t mispredicts = 0;   ///< direction or target wrong
    std::uint64_t taken = 0;         ///< taken control transfers
    std::uint64_t ras_mispredicts = 0; ///< returns the RAS got wrong

    /** Misprediction ratio over conditional branches. */
    double
    mispredictRatio() const
    {
        return branches ? static_cast<double>(mispredicts) / branches
                        : 0.0;
    }
};

/**
 * Owns all branch-prediction state and exposes the single operation
 * every simulation mode needs: predict this control instruction and
 * train on its outcome. train() is that operation; predictAndTrain()
 * is its DynInst form. Both are header-inline so the warming loop
 * gets them without a call.
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchUnitConfig &config);

    /**
     * Predict and train on one retired control-flow instruction.
     * @param pc instruction index.
     * @param target index of the next instruction executed (pc + 1
     *        for a branch not taken).
     * @param taken whether the transfer was taken.
     * @param kind the instruction's class (cpu::controlKind with this
     *        unit's link register); None trains nothing.
     * @return true when the front end would have misfetched: wrong
     *         direction, or taken with a wrong/missing target.
     */
    bool train(std::uint64_t pc, std::uint64_t target, bool taken,
               cpu::ControlKind kind);

    /**
     * train() on one retired instruction @p rec, classified by its
     * architectural opcode, rd and rs1.
     */
    bool
    predictAndTrain(const cpu::DynInst &rec)
    {
        return train(rec.pc, rec.next_pc, rec.taken,
                     cpu::controlKind(rec.is_branch, rec.is_jump, rec.op,
                                      rec.rd, rec.rs1, config_.link_reg));
    }

    /** Accumulated statistics. */
    const BranchStats &stats() const { return stats_; }

    /** Reset statistics (tables retained). */
    void clearStats() { stats_ = BranchStats(); }

    /**
     * Register predictor counters into @p group plus "btb"/"ras"
     * child groups. The unit must outlive dumps of the enclosing
     * registry.
     */
    void registerStats(obs::Group &group) const;

    /** Reset all tables to power-on state. */
    void reset();

    /** Predictor+BTB snapshot for checkpointing. */
    struct State
    {
        std::vector<std::uint8_t> predictor;
        branch::Btb::State btb;

        bool operator==(const State &) const = default;
    };

    State state() const;
    void setState(const State &st);

    const BranchUnitConfig &config() const { return config_; }

  private:
    BranchUnitConfig config_;
    branch::TournamentPredictor predictor_;
    branch::Btb btb_;
    branch::ReturnAddressStack ras_;
    BranchStats stats_;
};

inline bool
BranchUnit::train(std::uint64_t pc, std::uint64_t target, bool taken,
                  cpu::ControlKind kind)
{
    using cpu::ControlKind;
    if (kind == ControlKind::None)
        return false;

    const std::uint64_t pc_addr = isa::instAddr(pc);
    const std::uint64_t target_addr = isa::instAddr(target);
    bool mispredict = false;

    if (kind == ControlKind::Branch) {
        ++stats_.branches;
        const bool pred_taken = predictor_.predict(pc_addr);
        if (pred_taken != taken) {
            mispredict = true;
        } else if (taken) {
            std::uint64_t pred_target = 0;
            if (!btb_.lookup(pc_addr, pred_target) ||
                pred_target != target_addr) {
                mispredict = true;
            }
        }
        predictor_.update(pc_addr, taken);
        if (taken)
            btb_.update(pc_addr, target_addr);
    } else {
        ++stats_.jumps;
        if (kind == ControlKind::Return) {
            // Returns are predicted through the RAS.
            const std::uint64_t pred = ras_.pop();
            mispredict = pred != target_addr;
            if (mispredict)
                ++stats_.ras_mispredicts;
        } else {
            std::uint64_t pred_target = 0;
            if (!btb_.lookup(pc_addr, pred_target) ||
                pred_target != target_addr) {
                mispredict = true;
            }
            btb_.update(pc_addr, target_addr);
        }
        if (kind == ControlKind::Call)
            ras_.push(isa::instAddr(pc + 1));
    }

    if (taken)
        ++stats_.taken;
    if (mispredict)
        ++stats_.mispredicts;
    return mispredict;
}

} // namespace pgss::timing

#endif // PGSS_TIMING_BRANCH_UNIT_HH
