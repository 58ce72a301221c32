/** @file Tests for the kernel library. */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "workload/kernels.hh"

using namespace pgss;
using namespace pgss::workload;
using isa::Opcode;

namespace
{

/** Wrap a kernel in a driver that calls it @p calls times. */
isa::Program
wrapKernel(const KernelSpec &spec, std::uint32_t calls,
           double &ops_per_call)
{
    ProgramBuilder b("kwrap");
    const KernelCode kc = emitKernel(b, spec);
    ops_per_call = kc.ops_per_call;
    const std::uint32_t entry = b.here();
    b.loadImm(regs::drv0, calls);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Jal, regs::link, 0, 0, kc.entry);
    b.emit(Opcode::Addi, regs::drv0, regs::drv0, 0, -1);
    const std::uint32_t br = b.emitBranch(Opcode::Bne, regs::drv0, 0);
    b.patchTarget(br, loop);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    return b.finalize(entry);
}

/** Execute and count retired instructions. */
std::uint64_t
runProgram(const isa::Program &p)
{
    mem::MainMemory memory(p.data_bytes);
    if (!p.data_words.empty()) {
        auto image = p.data_words;
        image.resize(memory.words().size(), 0);
        memory.setWords(std::move(image));
    }
    cpu::FunctionalCore core(p, memory);
    cpu::DynInst rec;
    std::uint64_t n = 0;
    while (core.step(rec))
        ++n;
    return n;
}

KernelSpec
specFor(KernelKind kind)
{
    KernelSpec s;
    s.kind = kind;
    s.footprint_bytes = 64 * 1024;
    s.inner_iters = 500;
    s.ilp = 3;
    s.taken_bias = 0.5;
    s.seed = 9;
    return s;
}

} // namespace

class KernelSweep : public ::testing::TestWithParam<int>
{
  protected:
    KernelKind kind() const
    {
        return static_cast<KernelKind>(GetParam());
    }
};

TEST_P(KernelSweep, RunsToCompletion)
{
    double opc = 0.0;
    const isa::Program p = wrapKernel(specFor(kind()), 3, opc);
    const std::uint64_t retired = runProgram(p);
    EXPECT_GT(retired, 0u);
}

TEST_P(KernelSweep, OpsPerCallEstimateAccurate)
{
    double opc = 0.0;
    const std::uint32_t calls = 4;
    const isa::Program p = wrapKernel(specFor(kind()), calls, opc);
    const std::uint64_t retired = runProgram(p);
    const double driver = 2.0 + 3.0 * calls; // loadImm + loop + halt
    const double expected = opc * calls + driver;
    // Branchy uses an expectation over its data; everything else is
    // exact. Allow 3% either way.
    EXPECT_NEAR(static_cast<double>(retired), expected,
                0.03 * expected + 4.0)
        << kindName(kind());
}

TEST_P(KernelSweep, DeterministicEmission)
{
    ProgramBuilder a("a"), b("b");
    const KernelCode ka = emitKernel(a, specFor(kind()));
    const KernelCode kb = emitKernel(b, specFor(kind()));
    EXPECT_EQ(ka.entry, kb.entry);
    EXPECT_EQ(ka.ops_per_call, kb.ops_per_call);
    a.emit(Opcode::Halt, 0, 0, 0, 0);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    const isa::Program pa = a.finalize(0);
    const isa::Program pb = b.finalize(0);
    ASSERT_EQ(pa.code.size(), pb.code.size());
    for (std::size_t i = 0; i < pa.code.size(); ++i) {
        EXPECT_EQ(pa.code[i].op, pb.code[i].op);
        EXPECT_EQ(pa.code[i].imm, pb.code[i].imm);
    }
    EXPECT_EQ(pa.data_words, pb.data_words);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, KernelSweep,
    ::testing::Range(0, 8),
    [](const ::testing::TestParamInfo<int> &info) {
        return kindName(static_cast<KernelKind>(info.param));
    });

TEST(ChaseKernel, CursorSaveExecutes)
{
    // Each call must resume the walk where the previous one stopped:
    // the cursor word is rewritten at the end of every call. (The
    // seed emitted the cursor save after the kernel's return, so the
    // walk restarted from the same node every call.)
    KernelSpec spec = specFor(KernelKind::Chase);
    spec.footprint_bytes = 1024; // 128 nodes, cycle length 128
    spec.inner_iters = 5;        // walk 5 of them per call
    double opc = 0.0;
    const isa::Program p = wrapKernel(spec, 2, opc);

    // The driver calls the kernel, whose first instruction loads the
    // cursor's address.
    const auto call = std::find_if(
        p.code.begin() + static_cast<std::ptrdiff_t>(p.entry),
        p.code.end(),
        [](const isa::Instruction &i) { return i.op == Opcode::Jal; });
    ASSERT_NE(call, p.code.end());
    const isa::Instruction &load_cursor =
        p.code[static_cast<std::size_t>(call->imm)];
    ASSERT_EQ(load_cursor.op, Opcode::Lui);
    const std::uint64_t slot =
        static_cast<std::uint64_t>(load_cursor.imm) / 8;
    const std::uint64_t initial = p.data_words[slot];

    mem::MainMemory memory(p.data_bytes);
    auto image = p.data_words;
    image.resize(memory.words().size(), 0);
    memory.setWords(std::move(image));
    cpu::FunctionalCore core(p, memory);
    cpu::DynInst rec;
    while (core.step(rec)) {
    }
    const std::uint64_t final_cursor = memory.words()[slot];
    EXPECT_NE(final_cursor, initial);

    // 2 calls x 5 steps: the cursor must sit exactly 10 pointer hops
    // beyond its initial node.
    std::uint64_t at = initial;
    for (int hop = 0; hop < 10; ++hop)
        at = p.data_words[at / 8];
    EXPECT_EQ(final_cursor, at);
}

TEST(ChaseKernel, PermutationIsOneFullCycle)
{
    ProgramBuilder b("chase");
    KernelSpec spec = specFor(KernelKind::Chase);
    spec.footprint_bytes = 1024; // 128 slots
    emitKernel(b, spec);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    const isa::Program p = b.finalize(0);

    // Follow the pointers from the cursor: must visit all 128 slots
    // and return to the start.
    const std::uint64_t n = 128;
    const std::uint64_t cursor_word = p.data_words[n]; // cursor slot
    std::uint64_t at = cursor_word;
    std::set<std::uint64_t> visited;
    for (std::uint64_t i = 0; i < n; ++i) {
        visited.insert(at);
        at = p.data_words[at / 8];
    }
    EXPECT_EQ(visited.size(), n);
    EXPECT_EQ(at, cursor_word); // closed cycle
}

TEST(BranchyKernel, BiasControlsTakenFraction)
{
    for (double bias : {0.2, 0.8}) {
        ProgramBuilder b("branchy");
        KernelSpec spec = specFor(KernelKind::Branchy);
        spec.taken_bias = bias;
        spec.footprint_bytes = 32 * 1024; // 4096 elements
        emitKernel(b, spec);
        b.emit(Opcode::Halt, 0, 0, 0, 0);
        const isa::Program p = b.finalize(0);
        // Count zero low bits in the data array (branch taken).
        std::uint64_t zeros = 0;
        const std::uint64_t n = 4096;
        for (std::uint64_t i = 0; i < n; ++i)
            zeros += (p.data_words[i] & 1) == 0;
        EXPECT_NEAR(zeros / static_cast<double>(n), bias, 0.05);
    }
}

TEST(ComputeKernel, IlpClamped)
{
    ProgramBuilder b("c");
    KernelSpec spec = specFor(KernelKind::Compute);
    spec.ilp = 100; // clamped to 8
    const KernelCode kc = emitKernel(b, spec);
    EXPECT_NEAR(kc.ops_per_call,
                (8.0 + 2.0) * spec.inner_iters + 11.0, 1.0);
}

TEST(Kernels, KindNamesDistinct)
{
    std::set<std::string> names;
    for (int k = 0; k < 8; ++k)
        names.insert(kindName(static_cast<KernelKind>(k)));
    EXPECT_EQ(names.size(), 8u);
}

TEST(Kernels, DifferentSeedsDifferentData)
{
    ProgramBuilder a("a"), b("b");
    KernelSpec sa = specFor(KernelKind::Branchy);
    KernelSpec sb = sa;
    sb.seed = sa.seed + 1;
    emitKernel(a, sa);
    emitKernel(b, sb);
    a.emit(Opcode::Halt, 0, 0, 0, 0);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    EXPECT_NE(a.finalize(0).data_words, b.finalize(0).data_words);
}
