/**
 * @file
 * Differential tests for the engine's execute loop: in every
 * simulation mode it must leave exactly the architectural state,
 * memory image, cache and branch-predictor state, BBV harvests,
 * component statistics, mode accounting and cycle counts that the
 * step()-driven reference (tests/reference_driver.hh) produces, over
 * every suite workload and input set and across arbitrary chunk
 * boundaries. The reference applies the warming and timing layers
 * one at a time in DESIGN.md section 9.1's order, so these tests pin
 * the hooks' order and accounting; test_cpu_semantics pins what each
 * opcode computes.
 */

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "obs/stats.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"
#include "tests/reference_driver.hh"
#include "workload/suite.hh"

using namespace pgss;
using sim::SimMode;

namespace
{

/** Deliberately awkward chunk sizes to stress carry-over state. */
const std::uint64_t chunks[] = {1, 7, 12'345, 99'991, 250'000};

/** The l1i/l1d/l2/branch/pipeline statistics under "engine". */
std::vector<std::pair<std::string, double>>
componentStats(const obs::StatsRegistry &stats)
{
    std::vector<std::pair<std::string, double>> out;
    for (const auto &entry : stats.flattenValues()) {
        for (const char *group :
             {"l1i.", "l1d.", "l2.", "branch.", "pipeline."}) {
            if (entry.first.starts_with(std::string("stats.engine.") +
                                        group))
                out.push_back(entry);
        }
    }
    return out;
}

std::array<std::uint64_t, 4>
opsPerMode(const sim::ModeOps &m)
{
    return {m.functional_fast, m.functional_warm, m.detailed_warm,
            m.detailed_measure};
}

/** The engine and its reference on one program, run side by side. */
class SideBySide
{
  public:
    explicit SideBySide(const isa::Program &program,
                        const sim::EngineConfig &config = {})
        : engine_(program, config), ref_(program, config)
    {
        engine_.registerStats(engine_stats_.root());
        ref_.registerStats(ref_stats_.root().child("engine", "reference"));
    }

    void
    setHashedBbvEnabled(bool enabled)
    {
        engine_.setHashedBbvEnabled(enabled);
        ref_.setHashedBbvEnabled(enabled);
    }

    void
    setFullBbvEnabled(bool enabled)
    {
        engine_.setFullBbvEnabled(enabled);
        ref_.setFullBbvEnabled(enabled);
    }

    /** Up to @p n ops of @p mode on both; their results must agree. */
    sim::RunResult
    run(std::uint64_t n, SimMode mode, const std::string &where)
    {
        const sim::RunResult e = engine_.run(n, mode);
        const sim::RunResult r = ref_.run(n, mode);
        EXPECT_EQ(e.ops, r.ops) << where << " " << sim::modeName(mode);
        EXPECT_EQ(e.cycles, r.cycles)
            << where << " " << sim::modeName(mode);
        return e;
    }

    /**
     * Everything the reference can see must agree: registers, pc,
     * retired count, halt, the memory image, cache tags with their
     * LRU stamps and tick, predictor and BTB tables, cycles, ops per
     * mode and the component statistics (which alone pin the RAS).
     * Harvests (and so resets) both BBV trackers and compares them:
     * the pending taken-branch count must carry across chunks alike.
     * The engine's warm_fetch_line_ shows only through the L1I LRU
     * stamps, and its ops_since_taken_ only through a harvest.
     */
    void
    expectSame(const std::string &where)
    {
        cpu::FunctionalCore &e = engine_.core();
        cpu::FunctionalCore &r = ref_.core();
        EXPECT_EQ(e.regs(), r.regs()) << where;
        EXPECT_EQ(e.pc(), r.pc()) << where;
        EXPECT_EQ(e.retired(), r.retired()) << where;
        EXPECT_EQ(e.halted(), r.halted()) << where;
        EXPECT_TRUE(e.memory().words() == ref_.memory().words()) << where;
        EXPECT_TRUE(engine_.hierarchy().state() ==
                    ref_.hierarchy().state())
            << where;
        EXPECT_TRUE(engine_.branchUnit().state() ==
                    ref_.branchUnit().state())
            << where;
        EXPECT_EQ(engine_.cycles(), ref_.cycles()) << where;
        EXPECT_EQ(opsPerMode(engine_.modeOps()), opsPerMode(ref_.modeOps()))
            << where;
        EXPECT_EQ(engine_.harvestHashedBbvRaw(), ref_.harvestHashedBbvRaw())
            << where;
        EXPECT_EQ(engine_.harvestFullBbv(), ref_.harvestFullBbv()) << where;
        EXPECT_EQ(componentStats(engine_stats_), componentStats(ref_stats_))
            << where;
    }

    sim::SimulationEngine &engine() { return engine_; }
    bool halted() const { return engine_.halted() || ref_.halted(); }

  private:
    sim::SimulationEngine engine_;
    test::ReferenceEngine ref_;
    obs::StatsRegistry engine_stats_;
    obs::StatsRegistry ref_stats_;
};

/**
 * Run one workload/input set in @p mode on the engine and on the
 * reference, comparing everything after every chunk. Warm and
 * detailed modes run with the hashed BBV on, as PGSS runs them;
 * FunctionalFast with it off, then one more chunk with it on, whose
 * harvest pins the pending taken-branch count the BBV-off chunks
 * left alone.
 */
void
expectEngineMatchesReference(const std::string &name, std::uint32_t input,
                             SimMode mode,
                             const sim::EngineConfig &config = {})
{
    const std::string where = name + " input " + std::to_string(input) +
                              " " + sim::modeName(mode);
    auto built = workload::buildWorkload(name, 0.01, input);

    SideBySide both(built.program, config);
    const bool bbv = mode != SimMode::FunctionalFast;
    both.setHashedBbvEnabled(bbv);
    for (const std::uint64_t n : chunks) {
        both.run(n, mode, where);
        both.expectSame(where + " chunk " + std::to_string(n));
    }
    if (!bbv) {
        both.setHashedBbvEnabled(true);
        both.run(10'000, mode, where);
        both.expectSame(where + " after the BBV-off chunks");
    }
}

} // namespace

TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloads)
{
    for (const std::string &name : workload::suiteNames())
        expectEngineMatchesReference(name, 0, SimMode::FunctionalFast);
}

/** The alternate input sets take different data-dependent branches
 *  and touch different pages than the reference input. */
TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 1; input < 3; ++input)
            expectEngineMatchesReference(name, input,
                                         SimMode::FunctionalFast);
    }
}

TEST(CpuFastPath, WarmMatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 0; input < 3; ++input)
            expectEngineMatchesReference(name, input,
                                         SimMode::FunctionalWarm);
    }
}

TEST(CpuFastPath, DetailedMatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 0; input < 3; ++input)
            expectEngineMatchesReference(name, input,
                                         SimMode::DetailedMeasure);
    }
}

/** The pre-decoded call/return classes follow the configured link
 *  register, not the suite's default one. */
TEST(CpuFastPath, WarmMatchesStepWithAnotherLinkRegister)
{
    sim::EngineConfig config;
    config.branch.link_reg = 2;
    expectEngineMatchesReference("164.gzip", 0, SimMode::FunctionalWarm,
                                 config);
}

/**
 * PGSS-shaped mode sequence: functional warming to an offset inside
 * each period, a 3,000-op DetailedWarm and a 1,000-op DetailedMeasure
 * window, then warming to the period's end. Every window's cycles, and
 * the state at every period's end, must match the reference: the
 * detailed windows see the cache and predictor state the warm loop
 * left, and warming-order slips that later accesses would paper over
 * show in the LRU stamps.
 */
TEST(CpuFastPath, PgssShapedSequenceMatchesStep)
{
    constexpr std::uint64_t period = 100'000;
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        SideBySide both(built.program);
        both.setHashedBbvEnabled(true);

        std::uint64_t offset = 12'345;
        for (int window = 0; !both.halted(); ++window) {
            const std::string where =
                name + " window " + std::to_string(window);
            both.run(offset, SimMode::FunctionalWarm, where);
            both.run(3'000, SimMode::DetailedWarm, where);
            both.run(1'000, SimMode::DetailedMeasure, where);
            both.run(period - offset - 4'000, SimMode::FunctionalWarm,
                     where);
            both.expectSame(where);
            offset = (offset * 7 + 1'013) % (period - 4'000);
        }
    }
}

TEST(CpuFastPath, HashedBbvHarvestsMatchStep)
{
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        SideBySide both(built.program);
        both.setHashedBbvEnabled(true);

        // Harvest after every chunk: the pending taken-branch op
        // count must carry across execute-loop chunks exactly as the
        // reference carries it.
        for (const std::uint64_t n : chunks) {
            both.run(n, SimMode::FunctionalFast, name);
            both.expectSame(name + " after chunk " + std::to_string(n));
        }
    }
}

/**
 * Tracking off leaves the pending taken-branch count where it was, in
 * every mode: each chunk with the trackers off is followed by one
 * with them on, whose harvest shows the count the engine resumed
 * from.
 */
TEST(CpuFastPath, BbvOffChunksKeepThePendingCount)
{
    const SimMode modes[] = {SimMode::FunctionalFast,
                             SimMode::FunctionalWarm,
                             SimMode::DetailedWarm,
                             SimMode::DetailedMeasure};
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        SideBySide both(built.program);
        int i = 0;
        for (const std::uint64_t n : chunks) {
            for (const SimMode mode : modes) {
                const bool on = i++ % 2 == 1;
                both.setHashedBbvEnabled(on);
                both.setFullBbvEnabled(on);
                const std::string where = name + " chunk " +
                                          std::to_string(n) + " " +
                                          sim::modeName(mode) +
                                          (on ? " on" : " off");
                both.run(n, mode, where);
                both.expectSame(where);
            }
        }
    }
}

TEST(CpuFastPath, FullBbvHarvestsMatchStep)
{
    auto built = test::twoPhaseWorkload(60'000.0, 2);

    SideBySide both(built.program);
    both.setFullBbvEnabled(true);

    for (const std::uint64_t n : chunks) {
        both.run(n, SimMode::FunctionalFast, "full BBV");
        both.expectSame("after chunk " + std::to_string(n));
    }
}

TEST(CpuFastPath, RunsToHaltExactlyLikeStep)
{
    const isa::Program program = test::sumProgram(1000);

    SideBySide both(program);

    // Ask for far more ops than the program has: both must stop at
    // Halt with identical retired counts and register state.
    both.run(1'000'000, SimMode::FunctionalFast, "to halt");

    EXPECT_TRUE(both.engine().halted());
    EXPECT_EQ(both.engine().core().reg(3), 1000ull * 1001 / 2);
    both.expectSame("at halt");

    // Further runs on a halted engine retire nothing on either side.
    EXPECT_EQ(both.run(100, SimMode::FunctionalFast, "halted").ops, 0u);
}
