/** @file Whole-program tests for the functional core. */

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "tests/helpers.hh"

using namespace pgss;

namespace
{

struct Runner
{
    isa::Program program;
    mem::MainMemory memory;
    cpu::FunctionalCore core;

    explicit Runner(isa::Program p)
        : program(std::move(p)), memory(program.data_bytes),
          core(program, memory)
    {
        if (!program.data_words.empty()) {
            auto image = program.data_words;
            image.resize(memory.words().size(), 0);
            memory.setWords(std::move(image));
        }
    }

    std::uint64_t
    runAll()
    {
        cpu::DynInst rec;
        std::uint64_t n = 0;
        while (core.step(rec))
            ++n;
        return n;
    }
};

} // namespace

TEST(CpuPrograms, SumLoopComputesClosedForm)
{
    for (std::uint32_t n : {1u, 2u, 10u, 100u, 1000u}) {
        Runner r(test::sumProgram(n));
        r.runAll();
        EXPECT_EQ(r.core.reg(3),
                  static_cast<std::uint64_t>(n) * (n + 1) / 2)
            << "n=" << n;
    }
}

TEST(CpuPrograms, SumLoopDynamicLength)
{
    const std::uint32_t n = 50;
    Runner r(test::sumProgram(n));
    const std::uint64_t retired = r.runAll();
    EXPECT_EQ(retired, 2ull + 3ull * n + 1ull);
    EXPECT_EQ(retired, r.core.retired());
}

TEST(CpuPrograms, FibonacciIterative)
{
    using isa::Opcode;
    workload::ProgramBuilder pb("fib");
    pb.emit(Opcode::Addi, 1, 0, 0, 0);  // fib(0)
    pb.emit(Opcode::Addi, 2, 0, 0, 1);  // fib(1)
    pb.emit(Opcode::Addi, 4, 0, 0, 20); // counter
    const std::uint32_t loop = pb.here();
    pb.emit(Opcode::Add, 3, 1, 2, 0);
    pb.emit(Opcode::Add, 1, 2, 0, 0);
    pb.emit(Opcode::Add, 2, 3, 0, 0);
    pb.emit(Opcode::Addi, 4, 4, 0, -1);
    const std::uint32_t br = pb.emitBranch(Opcode::Bne, 4, 0);
    pb.patchTarget(br, loop);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    Runner r(pb.finalize(0));
    r.runAll();
    EXPECT_EQ(r.core.reg(2), 10946u); // fib(21)
}

TEST(CpuPrograms, MemoryReverseArray)
{
    using isa::Opcode;
    constexpr int n = 16;
    workload::ProgramBuilder pb("reverse");
    const std::uint64_t src = pb.allocData(n * 8);
    const std::uint64_t dst = pb.allocData(n * 8);
    for (int i = 0; i < n; ++i)
        pb.initWord(src + i * 8, 100 + i);

    pb.loadImm(1, src);
    pb.loadImm(2, dst + (n - 1) * 8);
    pb.loadImm(3, n);
    const std::uint32_t loop = pb.here();
    pb.emit(Opcode::Ld, 4, 1, 0, 0);
    pb.emit(Opcode::St, 0, 2, 4, 0);
    pb.emit(Opcode::Addi, 1, 1, 0, 8);
    pb.emit(Opcode::Addi, 2, 2, 0, -8);
    pb.emit(Opcode::Addi, 3, 3, 0, -1);
    const std::uint32_t br = pb.emitBranch(Opcode::Bne, 3, 0);
    pb.patchTarget(br, loop);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);

    Runner r(pb.finalize(0));
    r.runAll();
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(r.memory.words()[dst / 8 + i],
                  static_cast<std::uint64_t>(100 + n - 1 - i));
}

TEST(CpuPrograms, CallAndReturnThroughLinkRegister)
{
    using isa::Opcode;
    workload::ProgramBuilder pb("callret");
    // Subroutine at 0: r3 += 7; return.
    pb.emit(Opcode::Addi, 3, 3, 0, 7);
    pb.emit(Opcode::Jalr, 0, 1, 0, 0);
    // Main at 2: call twice, halt.
    const std::uint32_t entry = pb.here();
    pb.emit(Opcode::Jal, 1, 0, 0, 0);
    pb.emit(Opcode::Jal, 1, 0, 0, 0);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    Runner r(pb.finalize(entry));
    r.runAll();
    EXPECT_EQ(r.core.reg(3), 14u);
}

TEST(CpuPrograms, DeterministicAcrossRuns)
{
    auto built = test::twoPhaseWorkload(50'000.0, 2);
    Runner a(built.program);
    Runner b(built.program);
    EXPECT_EQ(a.runAll(), b.runAll());
    for (int i = 0; i < isa::num_regs; ++i)
        EXPECT_EQ(a.core.reg(i), b.core.reg(i));
}

TEST(CpuProgramsDeathTest, RunawayPcPanics)
{
    using isa::Opcode;
    workload::ProgramBuilder pb("runaway");
    pb.emit(Opcode::Nop, 0, 0, 0, 0); // no halt: PC runs off the end
    isa::Program p = pb.finalize(0);
    mem::MainMemory memory(p.data_bytes);
    cpu::FunctionalCore core(p, memory);
    cpu::DynInst rec;
    core.step(rec);
    EXPECT_DEATH(core.step(rec), "ran off the end");
}
