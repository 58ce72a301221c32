/** @file Tests for the synthetic SPEC2000-analogue suite. */

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "mem/main_memory.hh"
#include "sim/engine.hh"
#include "workload/program_builder.hh"
#include "workload/suite.hh"

using namespace pgss;
using namespace pgss::workload;

namespace
{
constexpr double tiny = 0.01; ///< test-speed scale factor
}

TEST(Suite, TenEvaluationWorkloads)
{
    EXPECT_EQ(suiteNames().size(), 10u);
    EXPECT_EQ(suiteNames().front(), "164.gzip");
    EXPECT_EQ(suiteNames().back(), "300.twolf");
}

class SuiteSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteSweep, BuildsAndHalts)
{
    const BuiltWorkload built = buildWorkload(GetParam(), tiny);
    EXPECT_FALSE(built.program.code.empty());
    EXPECT_GT(built.estimated_ops, 0.0);

    sim::SimulationEngine engine(built.program);
    const sim::RunResult r =
        engine.runToCompletion(sim::SimMode::FunctionalFast);
    EXPECT_TRUE(engine.halted());
    EXPECT_GT(r.ops, 0u);
}

TEST_P(SuiteSweep, EstimateMatchesActualLength)
{
    const BuiltWorkload built = buildWorkload(GetParam(), tiny);
    sim::SimulationEngine engine(built.program);
    const sim::RunResult r =
        engine.runToCompletion(sim::SimMode::FunctionalFast);
    // Branchy expectations make the estimate slightly approximate.
    EXPECT_NEAR(static_cast<double>(r.ops), built.estimated_ops,
                0.03 * built.estimated_ops)
        << GetParam();
}

TEST_P(SuiteSweep, DeterministicBuild)
{
    const BuiltWorkload a = buildWorkload(GetParam(), tiny);
    const BuiltWorkload b = buildWorkload(GetParam(), tiny);
    ASSERT_EQ(a.program.code.size(), b.program.code.size());
    for (std::size_t i = 0; i < a.program.code.size(); ++i)
        EXPECT_EQ(a.program.code[i].imm, b.program.code[i].imm);
    EXPECT_EQ(a.program.data_words, b.program.data_words);
}

TEST_P(SuiteSweep, ScaleGrowsDynamicLength)
{
    // Tiny scales are clamped by the one-call-per-step floor, so the
    // growth property is checked between quarter and full scale
    // (building is cheap; nothing is executed here).
    const BuiltWorkload small = buildWorkload(GetParam(), 0.25);
    const BuiltWorkload bigger = buildWorkload(GetParam(), 1.0);
    EXPECT_GT(bigger.estimated_ops, 1.5 * small.estimated_ops);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteSweep,
    ::testing::ValuesIn([] {
        std::vector<std::string> names = suiteNames();
        names.push_back("168.wupwise");
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Suite, ShortNamesResolve)
{
    EXPECT_EQ(workloadSpec("gzip").name, "164.gzip");
    EXPECT_EQ(workloadSpec("wupwise").name, "168.wupwise");
}

TEST(SuiteDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(workloadSpec("999.nonesuch"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Suite, WorkloadsHaveDistinctIpc)
{
    // mcf (pointer chasing over 16MB) must be far slower than mesa
    // (register-resident FP compute) — the IPC spread the suite needs
    // to reproduce the paper's per-benchmark differences.
    auto ipc_of = [](const std::string &name) {
        const BuiltWorkload built = buildWorkload(name, tiny);
        sim::SimulationEngine engine(built.program);
        const sim::RunResult r =
            engine.runToCompletion(sim::SimMode::DetailedMeasure);
        return static_cast<double>(r.ops) / r.cycles;
    };
    const double mesa = ipc_of("177.mesa");
    const double mcf = ipc_of("181.mcf");
    EXPECT_LT(mcf, 0.3);
    EXPECT_GT(mesa, 3.0 * mcf);
}

TEST(Suite, PhasesCarryDistinctCode)
{
    // Each kernel instance owns its own code: the kernels, emitted
    // before the driver, hold one loop-back branch (a branch whose
    // target is at or before it) per instance.
    const WorkloadSpec spec = workloadSpec("183.equake");
    EXPECT_GE(spec.instances.size(), 2u);
    const BuiltWorkload built = buildProgram(spec, tiny);
    std::size_t loop_backs = 0;
    for (std::uint64_t pc = 0; pc < built.program.entry; ++pc) {
        const isa::Instruction &inst = built.program.code[pc];
        loop_backs += inst.info().is_branch &&
                      static_cast<std::uint64_t>(inst.imm) <= pc;
    }
    EXPECT_GE(loop_backs, spec.instances.size());
}

TEST(Suite, ArtHasFineGrainedOscillation)
{
    // The art analogue's first block alternates two kernels every
    // ~24k ops (the paper's 40-50k-op micro-phases).
    const WorkloadSpec spec = workloadSpec("179.art");
    ASSERT_FALSE(spec.blocks.empty());
    const BlockSpec &osc = spec.blocks.front();
    ASSERT_EQ(osc.steps.size(), 2u);
    EXPECT_LT(osc.steps[0].ops, 50'000.0);
    EXPECT_LT(osc.steps[1].ops, 50'000.0);
    EXPECT_GT(osc.repeats, 100u);
}

TEST(SuiteDeathTest, NonPositiveScalePanics)
{
    for (double scale : {0.0, -1.0, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
        EXPECT_DEATH(buildWorkload("164.gzip", scale), "positive")
            << scale;
    }
}

// The suite lint: every evaluation workload, at every input set and
// at build scales around the figures' default (0.5x-2x), must build a
// well-formed program. It is checked by execution, not by static
// analysis. A run at these scales costs ~1e8 ops, but the scale only
// changes the trip counts the driver loads into its counter registers,
// so a figure-scale build must equal the test-scale build of the same
// input except for those counts, and the test-scale build is run to
// Halt: the execute loop panics on a pc outside the code and on an
// unaligned or out-of-range access, and the lint adds call/return
// pairing, halting outside every call and reaching every instruction.

namespace
{

struct SuiteCase
{
    std::string name;
    std::uint32_t input;
    double scale;
};

std::vector<SuiteCase>
allCases()
{
    std::vector<SuiteCase> cases;
    for (const std::string &name : suiteNames()) {
        for (std::uint32_t input = 0; input < num_inputs; ++input) {
            for (double scale : {0.5, 1.0, 2.0})
                cases.push_back({name, input, scale});
        }
    }
    return cases;
}

/** Records the pcs that run and pairs every return with its call. */
struct LintHooks : cpu::NoHooks
{
    std::vector<bool> reached;
    std::vector<std::uint64_t> open_calls; ///< return pc of each call
    std::uint64_t unpaired = 0;            ///< returns to no open call
    std::string first_unpaired;

    void fetch(std::uint64_t pc) { reached[pc] = true; }

    void control(std::uint64_t pc, std::uint64_t target, bool /*taken*/,
                 cpu::ControlKind kind)
    {
        if (kind == cpu::ControlKind::Call) {
            open_calls.push_back(pc + 1);
        } else if (kind == cpu::ControlKind::Return) {
            if (!open_calls.empty() && open_calls.back() == target)
                open_calls.pop_back();
            else if (unpaired++ == 0)
                first_unpaired = "pc " + std::to_string(pc) +
                                 " returns to " + std::to_string(target);
        }
    }
};

/**
 * Findings against @p prog, built at a figure scale, given @p ref,
 * the test-scale build of the same workload and input. Empty when
 * clean.
 */
std::vector<std::string>
lint(const isa::Program &prog, const BuiltWorkload &ref)
{
    std::vector<std::string> findings;
    const isa::Program &rp = ref.program;
    if (prog.code.size() != rp.code.size() || prog.entry != rp.entry ||
        prog.data_words != rp.data_words) {
        findings.push_back("layout differs from the test-scale build");
        return findings;
    }
    for (std::uint64_t pc = 0; pc < prog.code.size(); ++pc) {
        const isa::Instruction &a = prog.code[pc];
        const isa::Instruction &b = rp.code[pc];
        const bool trip_count =
            a.op == isa::Opcode::Lui &&
            (a.rd == regs::drv0 || a.rd == regs::drv1);
        if (a.op != b.op || a.rd != b.rd || a.rs1 != b.rs1 ||
            a.rs2 != b.rs2 || (a.imm != b.imm && !trip_count)) {
            findings.push_back("differs from the test-scale build: " +
                               isa::disassemble(a, pc));
        } else if (trip_count && a.imm < 1) {
            findings.push_back("trip count below one: " +
                               isa::disassemble(a, pc));
        }
    }

    mem::MainMemory memory(rp.data_bytes);
    std::vector<std::uint64_t> image = rp.data_words;
    image.resize(memory.words().size(), 0);
    memory.setWords(std::move(image));
    cpu::FunctionalCore core(rp, memory);
    LintHooks hooks;
    hooks.reached.assign(rp.code.size(), false);
    std::uint64_t since = 0;
    std::uint64_t ops = 0;
    const double budget = 2.0 * ref.estimated_ops;
    while (!core.halted() && static_cast<double>(ops) < budget)
        ops += core.execute(1u << 20, since, hooks);
    if (!core.halted())
        findings.push_back("no Halt within " + std::to_string(ops) +
                           " ops");
    if (!hooks.open_calls.empty())
        findings.push_back("halts inside " +
                           std::to_string(hooks.open_calls.size()) +
                           " open call(s)");
    for (std::uint64_t pc = 0; pc < rp.code.size(); ++pc) {
        if (!hooks.reached[pc])
            findings.push_back("never executes: " +
                               isa::disassemble(rp.code[pc], pc));
    }
    if (hooks.unpaired != 0)
        findings.push_back(std::to_string(hooks.unpaired) +
                           " return(s) pair with no open call; first: " +
                           hooks.first_unpaired);
    return findings;
}

} // namespace

class SuiteLint : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteLint, NoErrorFindings)
{
    const SuiteCase c = allCases()[static_cast<std::size_t>(GetParam())];
    SCOPED_TRACE(c.name + " input=" + std::to_string(c.input) +
                 " scale=" + std::to_string(c.scale));
    const BuiltWorkload built = buildWorkload(c.name, c.scale, c.input);
    // Non-default inputs suffix the program name ("256.bzip2.in1").
    EXPECT_EQ(built.program.name.rfind(c.name, 0), 0u);
    EXPECT_GT(built.program.code.size(), 0u);
    for (const std::string &f :
         lint(built.program, buildWorkload(c.name, tiny, c.input)))
        ADD_FAILURE() << f;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteLint,
    ::testing::Range(0, static_cast<int>(allCases().size())),
    [](const ::testing::TestParamInfo<int> &info) {
        const SuiteCase c =
            allCases()[static_cast<std::size_t>(info.param)];
        std::string tag = c.name + "_in" + std::to_string(c.input) +
                          "_x" + std::to_string(
                                     static_cast<int>(c.scale * 10));
        for (char &ch : tag) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return tag;
    });

TEST(SuiteLint, WupwiseVerifiesClean)
{
    const BuiltWorkload built = buildWorkload("wupwise", 1.0, 0);
    for (const std::string &f :
         lint(built.program, buildWorkload("wupwise", tiny, 0)))
        ADD_FAILURE() << f;
}
