/**
 * @file
 * Direction predictors: bimodal, gshare, and a tournament predictor
 * combining the two with a chooser table. SMARTS-style functional
 * fast-forwarding keeps these warm, so both timed and untimed paths
 * update the same state.
 */

#ifndef PGSS_BRANCH_PREDICTOR_HH
#define PGSS_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace pgss::branch
{

/** Saturating 2-bit counter helpers. */
namespace counter
{
/** Predicted-taken threshold for a 2-bit counter. */
inline bool taken(std::uint8_t c) { return c >= 2; }
/** Strengthen/weaken toward the observed outcome. */
inline std::uint8_t
update(std::uint8_t c, bool was_taken)
{
    if (was_taken)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}
} // namespace counter

/** Common interface for direction predictors. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(std::uint64_t pc) const = 0;

    /** Train with the resolved outcome. */
    virtual void update(std::uint64_t pc, bool taken) = 0;

    /** Reset all state to power-on values. */
    virtual void reset() = 0;

    /** Serialized table state for checkpointing. */
    virtual std::vector<std::uint8_t> state() const = 0;

    /** Restore table state captured by state(). */
    virtual void setState(const std::vector<std::uint8_t> &st) = 0;
};

/** Classic per-PC 2-bit counter table. */
class BimodalPredictor final : public DirectionPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BimodalPredictor(std::uint32_t entries = 4096);

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    void reset() override;
    std::vector<std::uint8_t> state() const override;
    void setState(const std::vector<std::uint8_t> &st) override;

  private:
    std::uint32_t index(std::uint64_t pc) const;
    std::vector<std::uint8_t> table_;
    std::uint32_t mask_;
};

/** Global-history XOR-indexed 2-bit counter table. */
class GsharePredictor final : public DirectionPredictor
{
  public:
    /**
     * @param entries table size (power of two).
     * @param history_bits global history length.
     */
    explicit GsharePredictor(std::uint32_t entries = 4096,
                             std::uint32_t history_bits = 12);

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    void reset() override;
    std::vector<std::uint8_t> state() const override;
    void setState(const std::vector<std::uint8_t> &st) override;

  private:
    std::uint32_t index(std::uint64_t pc) const;
    std::vector<std::uint8_t> table_;
    std::uint32_t mask_;
    std::uint32_t history_mask_;
    std::uint32_t history_ = 0;
};

/**
 * Tournament predictor: bimodal + gshare with a 2-bit chooser table
 * (McFarling style).
 */
class TournamentPredictor final : public DirectionPredictor
{
  public:
    /** @param entries size of each component table (power of two). */
    explicit TournamentPredictor(std::uint32_t entries = 4096,
                                 std::uint32_t history_bits = 12);

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    void reset() override;
    std::vector<std::uint8_t> state() const override;
    void setState(const std::vector<std::uint8_t> &st) override;

  private:
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<std::uint8_t> chooser_; ///< >=2 selects gshare
    std::uint32_t mask_;
};

// Hot paths, inline so functional warming trains without a call.

inline std::uint32_t
BimodalPredictor::index(std::uint64_t pc) const
{
    return static_cast<std::uint32_t>(pc) & mask_;
}

inline bool
BimodalPredictor::predict(std::uint64_t pc) const
{
    return counter::taken(table_[index(pc)]);
}

inline void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &c = table_[index(pc)];
    c = counter::update(c, taken);
}

inline std::uint32_t
GsharePredictor::index(std::uint64_t pc) const
{
    return (static_cast<std::uint32_t>(pc) ^ history_) & mask_;
}

inline bool
GsharePredictor::predict(std::uint64_t pc) const
{
    return counter::taken(table_[index(pc)]);
}

inline void
GsharePredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &c = table_[index(pc)];
    c = counter::update(c, taken);
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & history_mask_;
}

inline bool
TournamentPredictor::predict(std::uint64_t pc) const
{
    const bool use_gshare = counter::taken(
        chooser_[static_cast<std::uint32_t>(pc) & mask_]);
    return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
}

inline void
TournamentPredictor::update(std::uint64_t pc, bool taken)
{
    const bool bim = bimodal_.predict(pc);
    const bool gsh = gshare_.predict(pc);
    std::uint8_t &choice =
        chooser_[static_cast<std::uint32_t>(pc) & mask_];
    if (bim != gsh)
        choice = counter::update(choice, gsh == taken);
    bimodal_.update(pc, taken);
    gshare_.update(pc, taken);
}

} // namespace pgss::branch

#endif // PGSS_BRANCH_PREDICTOR_HH
