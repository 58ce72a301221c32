/**
 * @file
 * Differential tests for the execute loop: in every simulation mode it
 * must leave exactly the architectural state, memory image, cache and
 * branch-predictor state, BBV harvests, statistics and cycle counts
 * that the step() interpreter's reference loops produce
 * (setFastPathEnabled(false)), over every suite workload and input
 * set and across arbitrary chunk boundaries. State is compared as
 * whole checkpoints with ==.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "obs/stats.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"
#include "workload/suite.hh"

using namespace pgss;
using sim::SimMode;

namespace
{

/** Deliberately awkward chunk sizes to stress carry-over state. */
const std::uint64_t chunks[] = {1, 7, 12'345, 99'991, 250'000};

/**
 * Run one workload/input set in @p mode on the execute loop and on the
 * step() reference side by side. After every chunk the state
 * (checkpoint(): registers, pc, memory, caches with their LRU stamps
 * and tick, predictor, BTB, warm_fetch_line_), the hashed BBV harvest
 * and every engine.* statistic (which alone pin the RAS, as it is not
 * part of checkpoints) must agree. Warm and detailed modes run
 * with the hashed BBV on, as PGSS runs them; FunctionalFast with it
 * off, so the untracked taken-branch count is checked too.
 */
void
expectFastMatchesStep(const std::string &name, std::uint32_t input,
                      SimMode mode, const sim::EngineConfig &config = {})
{
    const std::string where = name + " input " + std::to_string(input) +
                              " " + sim::modeName(mode);
    auto built = workload::buildWorkload(name, 0.01, input);

    sim::SimulationEngine fast(built.program, config);
    sim::SimulationEngine slow(built.program, config);
    slow.setFastPathEnabled(false);
    obs::StatsRegistry fast_stats, slow_stats;
    fast.registerStats(fast_stats.root());
    slow.registerStats(slow_stats.root());
    const bool bbv = mode != SimMode::FunctionalFast;
    fast.setHashedBbvEnabled(bbv);
    slow.setHashedBbvEnabled(bbv);

    for (const std::uint64_t n : chunks) {
        EXPECT_EQ(fast.run(n, mode).cycles, slow.run(n, mode).cycles)
            << where << " chunk " << n;
        EXPECT_TRUE(fast.checkpoint() == slow.checkpoint())
            << where << " chunk " << n;
        EXPECT_EQ(fast.harvestHashedBbvRaw(), slow.harvestHashedBbvRaw())
            << where << " chunk " << n;
        EXPECT_EQ(fast_stats.flattenValues(), slow_stats.flattenValues())
            << where << " chunk " << n;
    }

    EXPECT_EQ(fast.totalOps(), slow.totalOps()) << where;
    EXPECT_EQ(fast.halted(), slow.halted()) << where;
    EXPECT_EQ(fast.core().pc(), slow.core().pc()) << where;
}

} // namespace

TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloads)
{
    for (const std::string &name : workload::suiteNames())
        expectFastMatchesStep(name, 0, SimMode::FunctionalFast);
}

/** The alternate input sets take different data-dependent branches
 *  and touch different pages than the reference input. */
TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 1; input < 3; ++input)
            expectFastMatchesStep(name, input, SimMode::FunctionalFast);
    }
}

TEST(CpuFastPath, WarmMatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 0; input < 3; ++input)
            expectFastMatchesStep(name, input, SimMode::FunctionalWarm);
    }
}

TEST(CpuFastPath, DetailedMatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 0; input < 3; ++input)
            expectFastMatchesStep(name, input, SimMode::DetailedMeasure);
    }
}

/** The pre-decoded call/return classes follow the configured link
 *  register, not the suite's default one. */
TEST(CpuFastPath, WarmMatchesStepWithAnotherLinkRegister)
{
    sim::EngineConfig config;
    config.branch.link_reg = 2;
    expectFastMatchesStep("164.gzip", 0, SimMode::FunctionalWarm, config);
}

/**
 * PGSS-shaped mode sequence: functional warming to an offset inside
 * each period, a 3,000-op DetailedWarm and a 1,000-op DetailedMeasure
 * window, then warming to the period's end. Every window's cycles, and
 * the state at every period's end, must match the step() reference:
 * the detailed windows see the cache and predictor state the warm
 * loop left, and warming-order slips that later accesses would paper
 * over show in the LRU stamps.
 */
TEST(CpuFastPath, PgssShapedSequenceMatchesStep)
{
    constexpr std::uint64_t period = 100'000;
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        sim::SimulationEngine fast(built.program);
        sim::SimulationEngine slow(built.program);
        slow.setFastPathEnabled(false);
        obs::StatsRegistry fast_stats, slow_stats;
        fast.registerStats(fast_stats.root());
        slow.registerStats(slow_stats.root());
        fast.setHashedBbvEnabled(true);
        slow.setHashedBbvEnabled(true);

        std::uint64_t offset = 12'345;
        for (int window = 0; !fast.halted() && !slow.halted(); ++window) {
            const std::string where =
                name + " window " + std::to_string(window);
            const auto both = [&](std::uint64_t n, SimMode mode) {
                const sim::RunResult f = fast.run(n, mode);
                const sim::RunResult s = slow.run(n, mode);
                EXPECT_EQ(f.ops, s.ops)
                    << where << " " << sim::modeName(mode);
                EXPECT_EQ(f.cycles, s.cycles)
                    << where << " " << sim::modeName(mode);
            };
            both(offset, SimMode::FunctionalWarm);
            both(3'000, SimMode::DetailedWarm);
            both(1'000, SimMode::DetailedMeasure);
            both(period - offset - 4'000, SimMode::FunctionalWarm);
            EXPECT_EQ(fast.harvestHashedBbv(), slow.harvestHashedBbv())
                << where;
            EXPECT_TRUE(fast.checkpoint() == slow.checkpoint())
                << where;
            offset = (offset * 7 + 1'013) % (period - 4'000);
        }

        EXPECT_EQ(fast.halted(), slow.halted()) << name;
        EXPECT_EQ(fast_stats.flattenValues(), slow_stats.flattenValues())
            << name;
    }
}

TEST(CpuFastPath, HashedBbvHarvestsMatchStep)
{
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        sim::SimulationEngine fast(built.program);
        sim::SimulationEngine slow(built.program);
        slow.setFastPathEnabled(false);
        fast.setHashedBbvEnabled(true);
        slow.setHashedBbvEnabled(true);

        // Harvest after every chunk: the pending taken-branch op
        // count must carry across fast-path chunks exactly as the
        // step() path carries it.
        for (const std::uint64_t n : chunks) {
            fast.run(n, SimMode::FunctionalFast);
            slow.run(n, SimMode::FunctionalFast);
            EXPECT_EQ(fast.harvestHashedBbv(),
                      slow.harvestHashedBbv())
                << name << " after chunk " << n;
        }
        EXPECT_EQ(fast.totalOps(), slow.totalOps()) << name;
    }
}

TEST(CpuFastPath, FullBbvHarvestsMatchStep)
{
    auto built = test::twoPhaseWorkload(60'000.0, 2);

    sim::SimulationEngine fast(built.program);
    sim::SimulationEngine slow(built.program);
    slow.setFastPathEnabled(false);
    fast.setFullBbvEnabled(true);
    slow.setFullBbvEnabled(true);

    for (const std::uint64_t n : chunks) {
        fast.run(n, SimMode::FunctionalFast);
        slow.run(n, SimMode::FunctionalFast);
        EXPECT_EQ(fast.harvestFullBbv(), slow.harvestFullBbv())
            << "after chunk " << n;
    }
}

TEST(CpuFastPath, RunsToHaltExactlyLikeStep)
{
    const isa::Program program = test::sumProgram(1000);

    sim::SimulationEngine fast(program);
    sim::SimulationEngine slow(program);
    slow.setFastPathEnabled(false);

    // Ask for far more ops than the program has: both paths must
    // stop at Halt with identical retired counts and register state.
    fast.run(1'000'000, SimMode::FunctionalFast);
    slow.run(1'000'000, SimMode::FunctionalFast);

    EXPECT_TRUE(fast.halted());
    EXPECT_TRUE(slow.halted());
    EXPECT_EQ(fast.totalOps(), slow.totalOps());
    EXPECT_EQ(fast.core().reg(3), slow.core().reg(3));
    EXPECT_EQ(fast.core().reg(3), 1000ull * 1001 / 2);
    EXPECT_TRUE(fast.checkpoint() == slow.checkpoint());

    // Further runs on a halted engine retire nothing on either path.
    EXPECT_EQ(fast.run(100, SimMode::FunctionalFast).ops, 0u);
    EXPECT_EQ(slow.run(100, SimMode::FunctionalFast).ops, 0u);
}

TEST(CpuFastPath, CoreLevelRunFastMatchesStep)
{
    auto built = test::twoPhaseWorkload(50'000.0, 1);

    mem::MainMemory mem_a(built.program.data_bytes);
    mem::MainMemory mem_b(built.program.data_bytes);
    for (mem::MainMemory *m : {&mem_a, &mem_b}) {
        auto image = built.program.data_words;
        image.resize(m->words().size(), 0);
        m->setWords(std::move(image));
    }
    cpu::FunctionalCore a(built.program, mem_a);
    cpu::FunctionalCore b(built.program, mem_b);

    cpu::NoHooks hooks;
    std::uint64_t since = 0;
    const std::uint64_t done = a.execute(30'000, since, hooks);
    cpu::DynInst rec;
    std::uint64_t stepped = 0;
    while (stepped < 30'000 && b.step(rec))
        ++stepped;

    EXPECT_EQ(done, stepped);
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.retired(), b.retired());
    for (int r = 0; r < isa::num_regs; ++r)
        EXPECT_EQ(a.reg(r), b.reg(r)) << "reg " << r;
    EXPECT_EQ(mem_a.words(), mem_b.words());
}
