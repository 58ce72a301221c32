/**
 * @file
 * The mode-switching simulation engine. Sampled simulation runs a
 * program through four levels of detail:
 *
 *  - FunctionalFast: architectural execution only (SimPoint-style
 *    fast-forward to a sample point).
 *  - FunctionalWarm: architectural execution that keeps the cache
 *    hierarchy and branch predictors warm (the SMARTS/PGSS
 *    fast-forward mode).
 *  - DetailedWarm: full timing, statistics discarded (the 3,000-op
 *    pre-sample warm-up of short-lifetime structures).
 *  - DetailedMeasure: full timing, statistics recorded (the 1,000-op
 *    measured window).
 *
 * The engine accounts instructions per mode — that accounting is what
 * Figures 12 and 13 are built from — and hosts the BBV trackers that
 * fast-forwarding feeds.
 */

#ifndef PGSS_SIM_ENGINE_HH
#define PGSS_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bbv/full_bbv.hh"
#include "bbv/hashed_bbv.hh"
#include "cpu/functional_core.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "timing/branch_unit.hh"
#include "timing/in_order_pipeline.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::sim
{

class Checkpoint;

/** Level of simulation detail. */
enum class SimMode : std::uint8_t
{
    FunctionalFast,
    FunctionalWarm,
    DetailedWarm,
    DetailedMeasure,
};

/** Human-readable mode name. */
const char *modeName(SimMode mode);

/** Stats/report identifier ("functional_fast", ...). */
const char *modeStatName(SimMode mode);

/** Instructions executed in each mode. */
struct ModeOps
{
    std::uint64_t functional_fast = 0;
    std::uint64_t functional_warm = 0;
    std::uint64_t detailed_warm = 0;
    std::uint64_t detailed_measure = 0;

    /** All instructions. */
    std::uint64_t
    total() const
    {
        return functional_fast + functional_warm + detailed_warm +
               detailed_measure;
    }

    /** Instructions simulated with full timing (warm + measured). */
    std::uint64_t
    detailed() const
    {
        return detailed_warm + detailed_measure;
    }
};

/** Everything configurable about the simulated machine. */
struct EngineConfig
{
    mem::HierarchyConfig hierarchy;
    timing::BranchUnitConfig branch;
    timing::PipelineConfig pipeline;
    bbv::HashedBbvConfig hashed_bbv;
};

/** Result of one run() call. */
struct RunResult
{
    std::uint64_t ops = 0;    ///< instructions retired
    std::uint64_t cycles = 0; ///< cycles advanced (detailed modes)
};

/** One program, one machine, four execution modes. */
class SimulationEngine
{
  public:
    /** Bind @p program (borrowed; must outlive the engine). */
    explicit SimulationEngine(const isa::Program &program,
                              const EngineConfig &config = {});

    /**
     * Execute up to @p n instructions in @p mode; stops early at
     * Halt.
     */
    RunResult run(std::uint64_t n, SimMode mode);

    /** Run to Halt in @p mode. @return instructions executed. */
    RunResult runToCompletion(SimMode mode);

    /** True once the program has executed Halt. */
    bool halted() const { return core_->halted(); }

    /** Total instructions retired across all modes. */
    std::uint64_t totalOps() const { return core_->retired(); }

    /** Pipeline cycle counter (advances only in detailed modes). */
    std::uint64_t cycles() const { return pipeline_->cycles(); }

    /** Per-mode instruction accounting. */
    const ModeOps &modeOps() const { return mode_ops_; }

    /**
     * Register this engine's counters (per-mode ops, totals, cycles)
     * and its components' groups (l1i/l1d/l2, branch, pipeline) into
     * @p parent. The engine must outlive every dump of the enclosing
     * registry.
     */
    void registerStats(obs::Group &parent) const;

    /** Enable/disable the hashed (PGSS) BBV tracker. */
    void setHashedBbvEnabled(bool enabled);

    /** Harvest the hashed BBV for the period just ended. */
    std::vector<double> harvestHashedBbv();

    /** Harvest the hashed BBV without normalisation (profiling). */
    std::vector<double> harvestHashedBbvRaw();

    /** Enable/disable the full (SimPoint) BBV collector. */
    void setFullBbvEnabled(bool enabled);

    /** Harvest the full BBV for the interval just ended. */
    bbv::SparseBbv harvestFullBbv();

    /**
     * Capture a restartable snapshot of the simulation state (full
     * memory image). Resets the memory's page-dirty baseline: the next
     * checkpointDelta() captures pages written from this point on.
     */
    Checkpoint checkpoint() const;

    /**
     * Capture a delta snapshot: full architectural/cache/branch state,
     * but only the memory pages written since the previous
     * checkpoint()/checkpointDelta() capture. Must be resolved against
     * its chain of predecessors (Checkpoint::applyDelta) before it can
     * be restored; CheckpointLibrary automates that.
     */
    Checkpoint checkpointDelta() const;

    /** Restore a snapshot captured on this program/config. */
    void restore(const Checkpoint &ckpt);

    /**
     * Return the engine to its freshly-constructed state at position
     * 0 (per-mode op accounting is kept — a rebuild's re-executed
     * instructions are real simulation work). CheckpointLibrary uses
     * this to fall back to a fast-forward rebuild when every on-disk
     * checkpoint at or below a seek target is corrupt and the engine
     * is already past the target.
     */
    void reset();

    /**
     * Enable/disable the FastOp execute loop (on by default). Every
     * mode then falls back to the step() interpreter and its DynInst
     * loops, the reference the loop is tested against — only useful
     * for differential testing.
     */
    void setFastPathEnabled(bool enabled)
    {
        fast_path_enabled_ = enabled;
    }

    const isa::Program &program() const { return program_; }
    const EngineConfig &config() const { return config_; }
    cpu::FunctionalCore &core() { return *core_; }
    mem::CacheHierarchy &hierarchy() { return *hierarchy_; }
    timing::BranchUnit &branchUnit() { return *branch_unit_; }
    timing::InOrderPipeline &pipeline() { return *pipeline_; }

  private:
    /** Up to @p n ops of @p mode on the core's execute loop. */
    std::uint64_t execute(std::uint64_t n, SimMode mode);
    template <typename Run>
    std::uint64_t withBbv(Run &&run);

    // The step() reference loops (setFastPathEnabled(false)).
    template <bool with_bbv>
    std::uint64_t runFunctional(std::uint64_t n, bool warm);
    template <bool with_bbv>
    std::uint64_t runDetailed(std::uint64_t n);

    void trackBbv(const cpu::DynInst &rec);

    const isa::Program &program_;
    EngineConfig config_;
    std::unique_ptr<mem::MainMemory> memory_;
    std::unique_ptr<cpu::FunctionalCore> core_;
    std::unique_ptr<mem::CacheHierarchy> hierarchy_;
    std::unique_ptr<timing::BranchUnit> branch_unit_;
    std::unique_ptr<timing::InOrderPipeline> pipeline_;

    bbv::HashedBbv hashed_bbv_;
    bbv::FullBbvCollector full_bbv_;
    bool hashed_bbv_enabled_ = false;
    bool full_bbv_enabled_ = false;
    bool fast_path_enabled_ = true;
    std::uint64_t ops_since_taken_ = 0;

    std::uint64_t warm_fetch_line_ = ~0ull;
    bool last_was_detailed_ = false;

    ModeOps mode_ops_;

    friend class Checkpoint;
};

} // namespace pgss::sim

#endif // PGSS_SIM_ENGINE_HH
