/**
 * @file
 * The reference the engine's execute loop is tested against: the
 * layering of SimulationEngine::run() restated over
 * FunctionalCore::step(), on components of its own built from the
 * same sim::EngineConfig.
 *
 * Each retired op's DynInst record goes through the layers one at a
 * time, in the order of DESIGN.md section 9.1:
 *  - FunctionalWarm: L1I warming once per fetch-line change, then
 *    warmData (L1D, then L2) for a load or store, then
 *    predictAndTrain for a branch or jump, then the BBV trackers;
 *  - DetailedWarm, DetailedMeasure: a pipeline resync on entry from a
 *    functional mode, then consume, then the BBV trackers;
 *  - FunctionalFast: the BBV trackers only.
 *
 * step() is itself one op of the execute loop, so this reference does
 * not restate the opcodes' semantics; test_cpu_semantics' table of
 * expected values pins those. What it restates, and so pins, is the
 * order the hooks apply the layers in and the engine's accounting.
 */

#ifndef PGSS_TESTS_REFERENCE_DRIVER_HH
#define PGSS_TESTS_REFERENCE_DRIVER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "bbv/full_bbv.hh"
#include "bbv/hashed_bbv.hh"
#include "cpu/functional_core.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "obs/stats.hh"
#include "sim/engine.hh"
#include "timing/branch_unit.hh"
#include "timing/in_order_pipeline.hh"

namespace pgss::test
{

/** One program on one machine, driven one step() at a time. */
class ReferenceEngine
{
  public:
    /** Bind @p program (borrowed; must outlive the reference). */
    explicit ReferenceEngine(const isa::Program &program,
                             const sim::EngineConfig &config = {})
        : config_(config), memory_(program.data_bytes),
          core_(program, memory_, config.branch.link_reg),
          hierarchy_(config.hierarchy), branch_unit_(config.branch),
          pipeline_(config.pipeline, hierarchy_, branch_unit_),
          hashed_bbv_(config.hashed_bbv)
    {
        std::vector<std::uint64_t> image = program.data_words;
        image.resize(memory_.words().size(), 0);
        memory_.setWords(std::move(image));
    }

    ReferenceEngine(const ReferenceEngine &) = delete;
    ReferenceEngine &operator=(const ReferenceEngine &) = delete;

    /** As SimulationEngine::run(). */
    sim::RunResult
    run(std::uint64_t n, sim::SimMode mode)
    {
        using sim::SimMode;
        const bool detailed = mode == SimMode::DetailedWarm ||
                              mode == SimMode::DetailedMeasure;
        if (detailed && !last_was_detailed_)
            pipeline_.resync();
        last_was_detailed_ = detailed;

        const std::uint64_t cycles_before = pipeline_.cycles();
        const std::uint64_t line_bytes = config_.hierarchy.l1i.line_bytes;
        const std::uint64_t inst_bytes = config_.pipeline.bytes_per_inst;
        cpu::DynInst rec;
        std::uint64_t done = 0;
        while (done < n && core_.step(rec)) {
            ++done;
            if (mode == SimMode::FunctionalWarm) {
                const std::uint64_t line = rec.pc * inst_bytes / line_bytes;
                if (line != fetch_line_) {
                    fetch_line_ = line;
                    hierarchy_.warmInst(rec.pc * inst_bytes);
                }
                if (rec.is_load || rec.is_store)
                    hierarchy_.warmData(rec.mem_addr, rec.is_store);
                if (rec.is_branch || rec.is_jump)
                    branch_unit_.predictAndTrain(rec);
            }
            if (detailed)
                pipeline_.consume(rec);
            feedBbv(rec);
        }

        switch (mode) {
          case SimMode::FunctionalFast:
            mode_ops_.functional_fast += done;
            break;
          case SimMode::FunctionalWarm:
            mode_ops_.functional_warm += done;
            break;
          case SimMode::DetailedWarm:
            mode_ops_.detailed_warm += done;
            break;
          case SimMode::DetailedMeasure:
            mode_ops_.detailed_measure += done;
            break;
        }
        return {done, pipeline_.cycles() - cycles_before};
    }

    void setHashedBbvEnabled(bool enabled) { hashed_enabled_ = enabled; }
    void setFullBbvEnabled(bool enabled) { full_enabled_ = enabled; }
    std::vector<double> harvestHashedBbvRaw()
    {
        return hashed_bbv_.harvestRaw();
    }
    bbv::SparseBbv harvestFullBbv() { return full_bbv_.harvest(); }

    /**
     * Register the components' groups into @p group as the engine
     * does under "engine": l1i/l1d/l2, "branch" and "pipeline".
     */
    void
    registerStats(obs::Group &group) const
    {
        hierarchy_.registerStats(group);
        branch_unit_.registerStats(group.child("branch", "branch unit"));
        pipeline_.registerStats(group.child("pipeline", "pipeline"));
    }

    bool halted() const { return core_.halted(); }
    std::uint64_t cycles() const { return pipeline_.cycles(); }
    const sim::ModeOps &modeOps() const { return mode_ops_; }
    cpu::FunctionalCore &core() { return core_; }
    mem::MainMemory &memory() { return memory_; }
    mem::CacheHierarchy &hierarchy() { return hierarchy_; }
    timing::BranchUnit &branchUnit() { return branch_unit_; }

  private:
    /** With no tracker on, the pending count is left alone. */
    void
    feedBbv(const cpu::DynInst &rec)
    {
        if (!hashed_enabled_ && !full_enabled_)
            return;
        ++since_taken_;
        if (!rec.taken)
            return;
        const std::uint64_t addr = isa::instAddr(rec.pc);
        if (hashed_enabled_)
            hashed_bbv_.onTakenBranch(addr, since_taken_);
        if (full_enabled_)
            full_bbv_.onTakenBranch(addr, since_taken_);
        since_taken_ = 0;
    }

    sim::EngineConfig config_;
    mem::MainMemory memory_;
    cpu::FunctionalCore core_;
    mem::CacheHierarchy hierarchy_;
    timing::BranchUnit branch_unit_;
    timing::InOrderPipeline pipeline_;
    bbv::HashedBbv hashed_bbv_;
    bbv::FullBbvCollector full_bbv_;
    bool hashed_enabled_ = false;
    bool full_enabled_ = false;
    std::uint64_t since_taken_ = 0;
    std::uint64_t fetch_line_ = ~0ull;
    bool last_was_detailed_ = false;
    sim::ModeOps mode_ops_;
};

} // namespace pgss::test

#endif // PGSS_TESTS_REFERENCE_DRIVER_HH
