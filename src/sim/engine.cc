#include "sim/engine.hh"

#include <string>

#include "obs/perf.hh"
#include "obs/progress.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
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
    core_ = std::make_unique<cpu::FunctionalCore>(program_, *memory_);
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(config.hierarchy);
    branch_unit_ = std::make_unique<timing::BranchUnit>(config.branch);
    pipeline_ = std::make_unique<timing::InOrderPipeline>(
        config.pipeline, *hierarchy_, *branch_unit_);

    // Per-mode host timers are process-global so every engine (and
    // there are many per bench) accumulates into the same trajectory.
    for (int m = 0; m < 4; ++m)
        mode_perf_[m] = obs::perf().handle(
            std::string("mode.") +
            modeStatName(static_cast<SimMode>(m)));
}

void
SimulationEngine::reset()
{
    PGSS_SPAN("engine.reset", Checkpoint);
    memory_ = std::make_unique<mem::MainMemory>(program_.data_bytes);
    if (!program_.data_words.empty()) {
        std::vector<std::uint64_t> image = program_.data_words;
        image.resize(memory_->words().size(), 0);
        memory_->setWords(std::move(image));
    }
    core_ = std::make_unique<cpu::FunctionalCore>(program_, *memory_);
    hierarchy_ =
        std::make_unique<mem::CacheHierarchy>(config_.hierarchy);
    branch_unit_ =
        std::make_unique<timing::BranchUnit>(config_.branch);
    pipeline_ = std::make_unique<timing::InOrderPipeline>(
        config_.pipeline, *hierarchy_, *branch_unit_);
    ops_since_taken_ = 0;
    warm_fetch_line_ = ~0ull;
    last_was_detailed_ = false;
    hashed_bbv_.reset();
    full_bbv_.reset();
}

void
SimulationEngine::trackBbv(const cpu::DynInst &rec)
{
    ++ops_since_taken_;
    if (!rec.taken)
        return;
    const std::uint64_t addr = isa::instAddr(rec.pc);
    if (hashed_bbv_enabled_)
        hashed_bbv_.onTakenBranch(addr, ops_since_taken_);
    if (full_bbv_enabled_)
        full_bbv_.onTakenBranch(addr, ops_since_taken_);
    ops_since_taken_ = 0;
}

template <bool with_bbv>
std::uint64_t
SimulationEngine::runFunctional(std::uint64_t n, bool warm)
{
    if (!warm && fast_path_enabled_) {
        // Fast-forward fast path: batched pre-decoded dispatch, no
        // DynInst population. The taken-branch callback is the only
        // side channel; ops_since_taken_ carries across chunks (by
        // reference) so harvests match the step() path bit for bit.
        // In the dominant configuration — hashed BBV only — the
        // callback is a single inlined LUT-hash accumulate, with no
        // virtual dispatch anywhere on the path.
        if constexpr (with_bbv) {
            if (hashed_bbv_enabled_ && !full_bbv_enabled_) {
                bbv::HashedBbv &hashed = hashed_bbv_;
                return core_->runFastWith(
                    n, ops_since_taken_,
                    [&hashed](std::uint64_t addr, std::uint64_t ops) {
                        hashed.onTakenBranch(addr, ops);
                    });
            }
            bbv::HashedBbv *hashed =
                hashed_bbv_enabled_ ? &hashed_bbv_ : nullptr;
            bbv::FullBbvCollector *full =
                full_bbv_enabled_ ? &full_bbv_ : nullptr;
            return core_->runFastWith(
                n, ops_since_taken_,
                [hashed, full](std::uint64_t addr, std::uint64_t ops) {
                    if (hashed)
                        hashed->onTakenBranch(addr, ops);
                    if (full)
                        full->onTakenBranch(addr, ops);
                });
        } else {
            return core_->runFast(n);
        }
    }

    cpu::DynInst rec;
    const std::uint32_t line_bytes = config_.hierarchy.l1i.line_bytes;
    const std::uint32_t bytes_per_inst = config_.pipeline.bytes_per_inst;
    std::uint64_t done = 0;

    while (done < n && core_->step(rec)) {
        ++done;
        if (warm) {
            const std::uint64_t line =
                rec.pc * bytes_per_inst / line_bytes;
            if (line != warm_fetch_line_) {
                warm_fetch_line_ = line;
                hierarchy_->warmInst(rec.pc * bytes_per_inst);
            }
            if (rec.is_load || rec.is_store)
                hierarchy_->warmData(rec.mem_addr, rec.is_store);
            if (rec.is_branch || rec.is_jump)
                branch_unit_->predictAndTrain(rec);
        }
        if constexpr (with_bbv)
            trackBbv(rec);
    }
    return done;
}

template <bool with_bbv>
std::uint64_t
SimulationEngine::runDetailed(std::uint64_t n)
{
    cpu::DynInst rec;
    std::uint64_t done = 0;
    while (done < n && core_->step(rec)) {
        ++done;
        pipeline_->consume(rec);
        if constexpr (with_bbv)
            trackBbv(rec);
    }
    return done;
}

RunResult
SimulationEngine::run(std::uint64_t n, SimMode mode)
{
    const bool detailed = mode == SimMode::DetailedWarm ||
                          mode == SimMode::DetailedMeasure;
    if (detailed && !last_was_detailed_)
        pipeline_->resync();
    last_was_detailed_ = detailed;

    if (static_cast<int>(mode) != last_mode_) {
        last_mode_ = static_cast<int>(mode);
        if (obs::TraceSink *t = obs::traceSink())
            t->emit(obs::TraceKind::ModeSwitch, core_->retired(),
                    static_cast<std::uint32_t>(mode));
    }

    const bool bbv = hashed_bbv_enabled_ || full_bbv_enabled_;
    const std::uint64_t cycles_before = pipeline_->cycles();
    const double wall_before = obs::wallSeconds();

    // One span per run() chunk (>= a sample window of work, never
    // per instruction): the causal per-thread view the Perfetto
    // export and the "profile" report section are built from.
    obs::ScopedSpan span(modeSpanName(mode),
                         detailed ? obs::SpanCat::Detailed
                                  : obs::SpanCat::Ff);

    std::uint64_t done = 0;
    switch (mode) {
      case SimMode::FunctionalFast:
        done = bbv ? runFunctional<true>(n, false)
                   : runFunctional<false>(n, false);
        mode_ops_.functional_fast += done;
        break;
      case SimMode::FunctionalWarm:
        done = bbv ? runFunctional<true>(n, true)
                   : runFunctional<false>(n, true);
        mode_ops_.functional_warm += done;
        break;
      case SimMode::DetailedWarm:
        done = bbv ? runDetailed<true>(n) : runDetailed<false>(n);
        mode_ops_.detailed_warm += done;
        break;
      case SimMode::DetailedMeasure:
        done = bbv ? runDetailed<true>(n) : runDetailed<false>(n);
        mode_ops_.detailed_measure += done;
        break;
    }

    span.addOps(done);
    mode_perf_[static_cast<int>(mode)]->add(
        done, obs::wallSeconds() - wall_before);

    // Time-series observability: one predictable null check per run()
    // chunk (per period, never per instruction) when timelines are
    // off; a counter snapshot every interval_ops committed ops when
    // on.
    if (obs::TimelineRecorder *tl = obs::timelines())
        tl->advance(done);

    // Live run-progress: relaxed adds on the thread's current job
    // (telemetry /status and /metrics); nullptr outside harness work.
    if (obs::JobHandle *job = obs::currentJob())
        job->addOps(done);

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
    c.mem_total_words_ = memory_->words().size();
    c.hierarchy_ = hierarchy_->state();
    c.branch_ = branch_unit_->state();
    memory_->clearPageDirty();
    if (obs::TraceSink *t = obs::traceSink())
        t->emit(obs::TraceKind::CheckpointSave, core_->retired());
    return c;
}

Checkpoint
SimulationEngine::checkpointDelta() const
{
    PGSS_SPAN("checkpoint.save_delta", Checkpoint);
    Checkpoint c;
    c.regs_ = core_->regs();
    c.pc_ = core_->pc();
    c.halted_ = core_->halted();
    c.retired_ = core_->retired();
    c.ops_since_taken_ = ops_since_taken_;
    c.warm_fetch_line_ = warm_fetch_line_;
    c.mem_delta_ = true;
    c.mem_total_words_ = memory_->words().size();
    c.delta_pages_ = memory_->dirtyPageList();
    const std::vector<std::uint64_t> &words = memory_->words();
    for (std::uint32_t page : c.delta_pages_) {
        const std::uint64_t first =
            std::uint64_t{page} * mem::MainMemory::page_words;
        const std::uint64_t count = memory_->pageWordCount(page);
        c.memory_words_.insert(c.memory_words_.end(),
                               words.begin() + first,
                               words.begin() + first + count);
    }
    c.hierarchy_ = hierarchy_->state();
    c.branch_ = branch_unit_->state();
    memory_->clearPageDirty();
    if (obs::TraceSink *t = obs::traceSink())
        t->emit(obs::TraceKind::CheckpointSave, core_->retired());
    return c;
}

void
SimulationEngine::restore(const Checkpoint &ckpt)
{
    PGSS_SPAN("checkpoint.restore", Checkpoint);
    util::panicIf(ckpt.mem_delta_,
                  "cannot restore a delta checkpoint directly; "
                  "resolve it with Checkpoint::applyDelta first");
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
    if (obs::TraceSink *t = obs::traceSink())
        t->emit(obs::TraceKind::CheckpointRestore, core_->retired());
}

} // namespace pgss::sim
