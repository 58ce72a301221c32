/**
 * @file
 * Branch target buffer and return-address stack. The timing model
 * charges a misfetch penalty when a taken branch's target is absent or
 * wrong in the BTB even if the direction was predicted correctly.
 */

#ifndef PGSS_BRANCH_BTB_HH
#define PGSS_BRANCH_BTB_HH

#include <cstdint>
#include <vector>

namespace pgss::branch
{

/** Lookup/hit accounting for the BTB. */
struct BtbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;

    /** Hit ratio; 0 when no lookups have happened. */
    double
    hitRatio() const
    {
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }
};

/** Direct-mapped, tagged branch target buffer. */
class Btb
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit Btb(std::uint32_t entries = 2048);

    /**
     * Look up the predicted target for the branch at @p pc.
     * @param[out] target predicted target when the lookup hits.
     * @return true on a tag hit.
     */
    bool lookup(std::uint64_t pc, std::uint64_t &target) const;

    /** Install/refresh the mapping pc -> target. */
    void update(std::uint64_t pc, std::uint64_t target);

    /** Accumulated lookup statistics. */
    const BtbStats &stats() const { return stats_; }

    /** Reset statistics (entries retained). */
    void clearStats() { stats_ = BtbStats(); }

    /** Clear all entries. */
    void reset();

    /** Entry snapshot for checkpointing. */
    struct State
    {
        std::vector<std::uint64_t> tags;
        std::vector<std::uint64_t> targets;
        std::vector<std::uint8_t> valid;

        bool operator==(const State &) const = default;
    };

    State state() const;
    void setState(const State &st);

  private:
    std::uint32_t index(std::uint64_t pc) const;

    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> targets_;
    std::vector<std::uint8_t> valid_;
    std::uint32_t mask_;
    mutable BtbStats stats_; ///< lookup() is logically const
};

/** Call/return traffic accounting for the RAS. */
struct RasStats
{
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t overflows = 0;  ///< pushes that wrapped a full stack
    std::uint64_t underflows = 0; ///< pops of an empty stack
};

/** Fixed-depth return-address stack with wrap-around overflow. */
class ReturnAddressStack
{
  public:
    /** @param depth number of entries. */
    explicit ReturnAddressStack(std::uint32_t depth = 16);

    /** Push a return address at a call. */
    void push(std::uint64_t addr);

    /**
     * Pop the predicted return address.
     * @return the top entry, or 0 when empty.
     */
    std::uint64_t pop();

    /** Current occupancy. */
    std::uint32_t size() const { return count_; }

    /** Accumulated traffic statistics. */
    const RasStats &stats() const { return stats_; }

    /** Reset statistics (contents retained). */
    void clearStats() { stats_ = RasStats(); }

    /** Empty the stack. */
    void reset();

  private:
    std::vector<std::uint64_t> stack_;
    std::uint32_t top_ = 0;
    std::uint32_t count_ = 0;
    RasStats stats_;
};

// Hot paths, inline so functional warming trains without a call.

inline std::uint32_t
Btb::index(std::uint64_t pc) const
{
    return static_cast<std::uint32_t>(pc) & mask_;
}

inline bool
Btb::lookup(std::uint64_t pc, std::uint64_t &target) const
{
    const std::uint32_t i = index(pc);
    ++stats_.lookups;
    if (!valid_[i] || tags_[i] != pc)
        return false;
    ++stats_.hits;
    target = targets_[i];
    return true;
}

inline void
Btb::update(std::uint64_t pc, std::uint64_t target)
{
    const std::uint32_t i = index(pc);
    tags_[i] = pc;
    targets_[i] = target;
    valid_[i] = 1;
}

inline void
ReturnAddressStack::push(std::uint64_t addr)
{
    ++stats_.pushes;
    top_ = (top_ + 1) % stack_.size();
    stack_[top_] = addr;
    if (count_ < stack_.size())
        ++count_;
    else
        ++stats_.overflows;
}

inline std::uint64_t
ReturnAddressStack::pop()
{
    ++stats_.pops;
    if (count_ == 0) {
        ++stats_.underflows;
        return 0;
    }
    const std::uint64_t addr = stack_[top_];
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    --count_;
    return addr;
}

} // namespace pgss::branch

#endif // PGSS_BRANCH_BTB_HH
