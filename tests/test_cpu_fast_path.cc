/**
 * @file
 * Differential tests for the batched fast-forward fast path:
 * runFastWith() must retire exactly the architectural state, dirty
 * pages and BBV harvests the step() interpreter produces, over every
 * suite workload and input set and across arbitrary chunk
 * boundaries.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
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

/** Serialized full checkpoint = regs, pc, retired, memory, caches. */
std::vector<std::uint8_t>
stateBytes(sim::SimulationEngine &e)
{
    return e.checkpoint().serialize();
}

/** Serialized delta = full state plus the pages dirtied since the
 *  previous capture (and it resets the dirty baseline). */
std::vector<std::uint8_t>
deltaBytes(sim::SimulationEngine &e)
{
    return e.checkpointDelta().serialize();
}

/** Run one workload/input set on the fast path and on step() side
 *  by side; the state and dirty-page set must agree after every
 *  chunk and at the end. */
void
expectFastMatchesStep(const std::string &name, std::uint32_t input)
{
    const std::string where = name + " input " + std::to_string(input);
    auto built = workload::buildWorkload(name, 0.01, input);

    sim::SimulationEngine fast(built.program);
    sim::SimulationEngine slow(built.program);
    slow.setFastPathEnabled(false);

    for (const std::uint64_t n : chunks) {
        fast.run(n, SimMode::FunctionalFast);
        slow.run(n, SimMode::FunctionalFast);
        EXPECT_EQ(deltaBytes(fast), deltaBytes(slow))
            << where << " chunk " << n;
    }

    EXPECT_EQ(fast.totalOps(), slow.totalOps()) << where;
    EXPECT_EQ(fast.halted(), slow.halted()) << where;
    EXPECT_EQ(fast.core().pc(), slow.core().pc()) << where;
    EXPECT_EQ(stateBytes(fast), stateBytes(slow)) << where;
}

} // namespace

TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloads)
{
    for (const std::string &name : workload::suiteNames())
        expectFastMatchesStep(name, 0);
}

/** The alternate input sets take different data-dependent branches
 *  and touch different pages than the reference input. */
TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 1; input < 3; ++input)
            expectFastMatchesStep(name, input);
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
    EXPECT_EQ(stateBytes(fast), stateBytes(slow));

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

    const std::uint64_t done = a.runFast(30'000);
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
