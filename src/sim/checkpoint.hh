/**
 * @file
 * In-memory simulation snapshots. A checkpoint captures everything
 * needed to continue execution bit-identically: architectural state,
 * the data-memory image, cache tags, and branch-predictor tables.
 * SimulationEngine::checkpoint() takes one and restore() puts it back;
 * operator== compares two snapshots field by field, e.g. a restored
 * run with the continuous one. Snapshots are never written to disk
 * (DESIGN.md section 9.3).
 */

#ifndef PGSS_SIM_CHECKPOINT_HH
#define PGSS_SIM_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "mem/hierarchy.hh"
#include "timing/branch_unit.hh"

namespace pgss::sim
{

class SimulationEngine;

/** A snapshot of one engine's simulation state. */
class Checkpoint
{
  public:
    Checkpoint() = default;

    /** Total instructions retired at capture time. */
    std::uint64_t retired() const { return retired_; }

    /** Equal when every captured field is equal. */
    bool operator==(const Checkpoint &) const = default;

  private:
    std::array<std::uint64_t, isa::num_regs> regs_{};
    std::uint64_t pc_ = 0;
    bool halted_ = false;
    std::uint64_t retired_ = 0;
    std::uint64_t ops_since_taken_ = 0;
    /**
     * Warming's last-fetched L1I line. Without it a restored run
     * would warm one extra fetch the continuous run deduplicated,
     * shifting every later LRU decision by one tick.
     */
    std::uint64_t warm_fetch_line_ = ~0ull;

    /** The complete data-memory image. */
    std::vector<std::uint64_t> memory_words_;

    mem::CacheHierarchy::State hierarchy_;
    timing::BranchUnit::State branch_;

    friend class SimulationEngine;
};

} // namespace pgss::sim

#endif // PGSS_SIM_CHECKPOINT_HH
