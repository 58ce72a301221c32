#include "sim/engine.hh"

#include <bit>

#include "obs/spans.hh"
#include "obs/stats.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace pgss::sim
{

const char *
modeName(SimMode mode)
{
    switch (mode) {
      case SimMode::FunctionalFast:
        return "functional-fast";
      case SimMode::FunctionalWarm:
        return "functional-warm";
      case SimMode::DetailedWarm:
        return "detailed-warm";
      case SimMode::DetailedMeasure:
        return "detailed-measure";
    }
    return "unknown";
}

const char *
modeStatName(SimMode mode)
{
    switch (mode) {
      case SimMode::FunctionalFast:
        return "functional_fast";
      case SimMode::FunctionalWarm:
        return "functional_warm";
      case SimMode::DetailedWarm:
        return "detailed_warm";
      case SimMode::DetailedMeasure:
        return "detailed_measure";
    }
    return "unknown";
}

namespace
{

/** Span name per mode (static storage; records keep the pointer). */
const char *
modeSpanName(SimMode mode)
{
    switch (mode) {
      case SimMode::FunctionalFast:
        return "engine.functional_fast";
      case SimMode::FunctionalWarm:
        return "engine.functional_warm";
      case SimMode::DetailedWarm:
        return "engine.detailed_warm";
      case SimMode::DetailedMeasure:
        return "engine.detailed_measure";
    }
    return "engine.unknown";
}

// ---- execute() hooks, one set per mode (cpu::NoHooks documents the
// points the loop calls them at).

/** FunctionalWarm: cache and branch-predictor warming. */
struct WarmHooks : cpu::NoHooks
{
    mem::CacheHierarchy &hierarchy;
    timing::BranchUnit &branch;
    std::uint64_t bytes_per_inst;
    std::uint32_t line_shift; ///< log2(L1I line bytes)
    std::uint64_t fetch_line; ///< the engine's warm_fetch_line_

    /**
     * Warm the L1I once per fetch-line change; the line carries across
     * calls in warm_fetch_line_.
     */
    void
    fetch(std::uint64_t pc)
    {
        const std::uint64_t addr = pc * bytes_per_inst;
        const std::uint64_t line = addr >> line_shift;
        if (line != fetch_line) {
            fetch_line = line;
            hierarchy.warmInst(addr);
        }
    }

    void
    memory(std::uint64_t addr, bool is_store)
    {
        hierarchy.warmData(addr, is_store);
    }

    void
    control(std::uint64_t pc, std::uint64_t target, bool taken,
            cpu::ControlKind kind)
    {
        branch.train(pc, target, taken, kind);
    }
};

/** DetailedWarm/Measure: each op's DynInst into the timing model. */
struct DetailedHooks : cpu::RecordHooks
{
    timing::InOrderPipeline &pipeline;

    void
    retire(std::uint64_t pc, std::uint64_t next_pc)
    {
        RecordHooks::retire(pc, next_pc);
        pipeline.consume(rec);
    }
};

/** @p Mode's hooks plus the taken-branch sink @p Bbv. */
template <typename Mode, typename Bbv>
struct WithBbv : Mode
{
    Bbv bbv;

    void
    taken(std::uint64_t branch_addr, std::uint64_t ops)
    {
        bbv(branch_addr, ops);
    }
};

/** Taken-branch sinks: none, hashed only (PGSS), or any set. */
struct NoBbv
{
    void operator()(std::uint64_t, std::uint64_t) const {}
};

struct HashedBbvSink
{
    bbv::HashedBbv &hashed;

    void
    operator()(std::uint64_t addr, std::uint64_t ops) const
    {
        hashed.onTakenBranch(addr, ops);
    }
};

struct AnyBbvSink
{
    bbv::HashedBbv *hashed;
    bbv::FullBbvCollector *full;

    void
    operator()(std::uint64_t addr, std::uint64_t ops) const
    {
        if (hashed)
            hashed->onTakenBranch(addr, ops);
        if (full)
            full->onTakenBranch(addr, ops);
    }
};

} // anonymous namespace

SimulationEngine::SimulationEngine(const isa::Program &program,
                                   const EngineConfig &config)
    : program_(program), config_(config),
      hashed_bbv_(config.hashed_bbv)
{
    memory_ = std::make_unique<mem::MainMemory>(program.data_bytes);
    if (!program.data_words.empty()) {
        std::vector<std::uint64_t> image = program.data_words;
        image.resize(memory_->words().size(), 0);
        memory_->setWords(std::move(image));
    }
    core_ = std::make_unique<cpu::FunctionalCore>(
        program_, *memory_, config.branch.link_reg);
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(config.hierarchy);
    branch_unit_ = std::make_unique<timing::BranchUnit>(config.branch);
    pipeline_ = std::make_unique<timing::InOrderPipeline>(
        config.pipeline, *hierarchy_, *branch_unit_);
}

template <typename Run>
std::uint64_t
SimulationEngine::withBbv(Run &&run)
{
    // With no tracker on, the pending count ops_since_taken_ stays as
    // it is (a tracker turned on later resumes from it), so the loop
    // counts into a scratch variable.
    if (!hashed_bbv_enabled_ && !full_bbv_enabled_) {
        std::uint64_t untracked = 0;
        return run(NoBbv{}, untracked);
    }
    if (!full_bbv_enabled_)
        return run(HashedBbvSink{hashed_bbv_}, ops_since_taken_);
    return run(AnyBbvSink{hashed_bbv_enabled_ ? &hashed_bbv_ : nullptr,
                          &full_bbv_},
               ops_since_taken_);
}

std::uint64_t
SimulationEngine::execute(std::uint64_t n, SimMode mode)
{
    cpu::FunctionalCore &core = *core_;
    switch (mode) {
      case SimMode::FunctionalFast:
        return withBbv([&](auto bbv, std::uint64_t &since) {
            WithBbv<cpu::NoHooks, decltype(bbv)> hooks{{}, bbv};
            return core.execute(n, since, hooks);
        });
      case SimMode::FunctionalWarm:
        return withBbv([&](auto bbv, std::uint64_t &since) {
            WithBbv<WarmHooks, decltype(bbv)> hooks{
                {{},
                 *hierarchy_,
                 *branch_unit_,
                 config_.pipeline.bytes_per_inst,
                 static_cast<std::uint32_t>(std::countr_zero(
                     config_.hierarchy.l1i.line_bytes)),
                 warm_fetch_line_},
                bbv};
            const std::uint64_t done = core.execute(n, since, hooks);
            warm_fetch_line_ = hooks.fetch_line;
            return done;
        });
      case SimMode::DetailedWarm:
      case SimMode::DetailedMeasure:
        return withBbv([&](auto bbv, std::uint64_t &since) {
            WithBbv<DetailedHooks, decltype(bbv)> hooks{
                {{{}, core.decodedInsts()}, *pipeline_}, bbv};
            return core.execute(n, since, hooks);
        });
    }
    return 0;
}

RunResult
SimulationEngine::run(std::uint64_t n, SimMode mode)
{
    const bool detailed = mode == SimMode::DetailedWarm ||
                          mode == SimMode::DetailedMeasure;
    if (detailed && !last_was_detailed_)
        pipeline_->resync();
    last_was_detailed_ = detailed;

    const std::uint64_t cycles_before = pipeline_->cycles();

    // One span per run() chunk (>= a sample window of work, never
    // per instruction): the engine's only host timer. Its
    // "profile.flat" row carries the mode's calls, ops, seconds and
    // MIPS, which `pgss_report profile` renders; with no profiler
    // installed it reads no clock.
    obs::ScopedSpan span(modeSpanName(mode),
                         detailed ? obs::SpanCat::Detailed
                                  : obs::SpanCat::Ff);

    const std::uint64_t done = execute(n, mode);

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

    span.addOps(done);

    return {done, pipeline_->cycles() - cycles_before};
}

RunResult
SimulationEngine::runToCompletion(SimMode mode)
{
    RunResult total;
    while (!halted()) {
        const RunResult r =
            run(std::uint64_t{1} << 24, mode);
        total.ops += r.ops;
        total.cycles += r.cycles;
        if (r.ops == 0)
            break;
    }
    return total;
}

void
SimulationEngine::setHashedBbvEnabled(bool enabled)
{
    hashed_bbv_enabled_ = enabled;
}

std::vector<double>
SimulationEngine::harvestHashedBbv()
{
    return hashed_bbv_.harvest();
}

std::vector<double>
SimulationEngine::harvestHashedBbvRaw()
{
    return hashed_bbv_.harvestRaw();
}

void
SimulationEngine::setFullBbvEnabled(bool enabled)
{
    full_bbv_enabled_ = enabled;
}

bbv::SparseBbv
SimulationEngine::harvestFullBbv()
{
    return full_bbv_.harvest();
}

void
SimulationEngine::registerStats(obs::Group &parent) const
{
    obs::Group &g =
        parent.child("engine", "mode-switching simulation engine");
    g.addCounter("total_ops", "instructions retired, all modes",
                 [this] { return core_->retired(); });
    g.addCounter("cycles", "detailed-mode cycles",
                 [this] { return pipeline_->cycles(); });
    g.addVector(
        "mode_ops", "instructions executed per mode",
        {modeStatName(SimMode::FunctionalFast),
         modeStatName(SimMode::FunctionalWarm),
         modeStatName(SimMode::DetailedWarm),
         modeStatName(SimMode::DetailedMeasure)},
        [this] {
            return std::vector<double>{
                static_cast<double>(mode_ops_.functional_fast),
                static_cast<double>(mode_ops_.functional_warm),
                static_cast<double>(mode_ops_.detailed_warm),
                static_cast<double>(mode_ops_.detailed_measure)};
        });
    // Exact per-mode counters alongside the vector view: the report
    // contract is that these match ModeOps to the op.
    g.addCounter("ops_functional_fast", "ops in functional-fast",
                 [this] { return mode_ops_.functional_fast; });
    g.addCounter("ops_functional_warm", "ops in functional-warm",
                 [this] { return mode_ops_.functional_warm; });
    g.addCounter("ops_detailed_warm", "ops in detailed-warm",
                 [this] { return mode_ops_.detailed_warm; });
    g.addCounter("ops_detailed_measure", "ops in detailed-measure",
                 [this] { return mode_ops_.detailed_measure; });
    g.addFormula("detailed_fraction",
                 "share of ops simulated with full timing",
                 [this] {
                     const std::uint64_t total = mode_ops_.total();
                     return total ? static_cast<double>(
                                        mode_ops_.detailed()) /
                                        static_cast<double>(total)
                                  : 0.0;
                 });

    hierarchy_->registerStats(g);
    branch_unit_->registerStats(
        g.child("branch", "front-end branch machinery"));
    pipeline_->registerStats(
        g.child("pipeline", "in-order timing model"));
}

Checkpoint
SimulationEngine::checkpoint() const
{
    PGSS_SPAN("checkpoint.save_full", Checkpoint);
    Checkpoint c;
    c.regs_ = core_->regs();
    c.pc_ = core_->pc();
    c.halted_ = core_->halted();
    c.retired_ = core_->retired();
    c.ops_since_taken_ = ops_since_taken_;
    c.warm_fetch_line_ = warm_fetch_line_;
    c.memory_words_ = memory_->words();
    c.hierarchy_ = hierarchy_->state();
    c.branch_ = branch_unit_->state();
    return c;
}

void
SimulationEngine::restore(const Checkpoint &ckpt)
{
    PGSS_SPAN("checkpoint.restore", Checkpoint);
    util::panicIf(ckpt.memory_words_.size() != memory_->words().size(),
                  "checkpoint from a different program");
    core_->setRegs(ckpt.regs_);
    core_->setPc(ckpt.pc_);
    core_->setHalted(ckpt.halted_);
    core_->setRetired(ckpt.retired_);
    ops_since_taken_ = ckpt.ops_since_taken_;
    memory_->setWords(ckpt.memory_words_);
    hierarchy_->setState(ckpt.hierarchy_);
    branch_unit_->setState(ckpt.branch_);
    // Restoring the warming dedup line keeps the post-restore cache
    // access stream identical to the continuous run; the remaining
    // transient timing state is rebuilt by the next detailed warm-up.
    warm_fetch_line_ = ckpt.warm_fetch_line_;
    last_was_detailed_ = false;
    hashed_bbv_.reset();
    full_bbv_.reset();
}

} // namespace pgss::sim
