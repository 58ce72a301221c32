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
 * The last two make up the detailed sample that PGSS, SMARTS and
 * TurboSMARTS all take: SimulationEngine::takeSample() runs one, and
 * kSampleWarmupOps/kSampleMeasureOps are its two lengths.
 *
 * Every mode runs the functional core's execute loop with that mode's
 * hooks (DESIGN.md section 9.1). The engine accounts instructions per
 * mode — that accounting is what Figures 12 and 13 are built from —
 * and hosts the BBV trackers that fast-forwarding feeds.
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

/** DetailedWarm ops before each measured window. */
inline constexpr std::uint64_t kSampleWarmupOps = 3'000;
/** DetailedMeasure ops in each measured window. */
inline constexpr std::uint64_t kSampleMeasureOps = 1'000;
/** Detailed ops one whole sample costs. */
inline constexpr std::uint64_t kSampleOps =
    kSampleWarmupOps + kSampleMeasureOps;

/** Result of one takeSample() call. */
struct SampleResult
{
    std::uint64_t ops = 0;          ///< warm-up + measured ops run
    std::uint64_t measured_ops = 0; ///< ops in the measured window
    double cpi = 0.0; ///< window cycles / measured_ops; 0 if none
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

    /**
     * Take one detailed sample here: kSampleWarmupOps of
     * DetailedWarm, then kSampleMeasureOps of DetailedMeasure. Either
     * part stops early at Halt.
     */
    SampleResult takeSample();

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
     * Capture an in-memory snapshot of the simulation state: registers,
     * the whole memory image, cache tags and predictor tables.
     */
    Checkpoint checkpoint() const;

    /** Restore a snapshot captured on this program/config. */
    void restore(const Checkpoint &ckpt);

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
    std::uint64_t ops_since_taken_ = 0;

    std::uint64_t warm_fetch_line_ = ~0ull;
    bool last_was_detailed_ = false;

    ModeOps mode_ops_;
};

// Defined here, not in engine.cc: a caller of run() inside engine.cc
// changes which execute<> instantiations GCC inlines into run(), and
// so the machine code of every mode's loop.
inline SampleResult
SimulationEngine::takeSample()
{
    const RunResult warm = run(kSampleWarmupOps, SimMode::DetailedWarm);
    const RunResult meas =
        run(kSampleMeasureOps, SimMode::DetailedMeasure);
    SampleResult s;
    s.ops = warm.ops + meas.ops;
    s.measured_ops = meas.ops;
    if (meas.ops > 0)
        s.cpi = static_cast<double>(meas.cycles) /
                static_cast<double>(meas.ops);
    return s;
}

} // namespace pgss::sim

#endif // PGSS_SIM_ENGINE_HH
