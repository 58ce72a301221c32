/** @file Per-opcode semantic tests for the functional core. */

#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "workload/program_builder.hh"

using namespace pgss;
using isa::Opcode;

namespace
{

std::uint64_t
bits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

double
asDouble(std::uint64_t b)
{
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
}

/** Load @p program's initial data image into @p memory. */
void
loadImage(const isa::Program &program, mem::MainMemory &memory)
{
    if (!program.data_words.empty()) {
        auto image = program.data_words;
        image.resize(memory.words().size(), 0);
        memory.setWords(std::move(image));
    }
}

/** Run a tiny program and return the core for inspection. */
struct MiniRun
{
    isa::Program program;
    mem::MainMemory memory;
    cpu::FunctionalCore core;

    explicit MiniRun(isa::Program p)
        : program(std::move(p)), memory(program.data_bytes),
          core(program, memory)
    {
        loadImage(program, memory);
    }

    /**
     * Run to halt with step(), then run the program again with the
     * execute loop on a second core with its own memory: both paths
     * must leave the same registers and memory.
     */
    void
    runAll()
    {
        cpu::DynInst rec;
        while (core.step(rec)) {
        }

        mem::MainMemory fast_memory(program.data_bytes);
        loadImage(program, fast_memory);
        cpu::FunctionalCore fast(program, fast_memory);
        cpu::NoHooks hooks;
        std::uint64_t since = 0;
        fast.execute(std::numeric_limits<std::uint64_t>::max(), since,
                     hooks);
        EXPECT_EQ(fast.regs(), core.regs())
            << "execute<NoHooks> and step() disagree on " << program.name;
        EXPECT_EQ(fast_memory.words(), memory.words())
            << "execute<NoHooks> and step() disagree on " << program.name;
    }
};

/** Build: r1 = a; r2 = b; r3 = a OP b; halt. */
isa::Program
binaryOpProgram(Opcode op, std::uint64_t a, std::uint64_t b)
{
    workload::ProgramBuilder pb(std::string(isa::mnemonic(op)));
    pb.loadImm(1, a);
    pb.loadImm(2, b);
    pb.emit(op, 3, 1, 2, 0);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    return pb.finalize(0);
}

std::uint64_t
evalBinary(Opcode op, std::uint64_t a, std::uint64_t b)
{
    MiniRun run(binaryOpProgram(op, a, b));
    run.runAll();
    return run.core.reg(3);
}

} // namespace

TEST(CpuSemantics, IntegerAlu)
{
    EXPECT_EQ(evalBinary(Opcode::Add, 5, 7), 12u);
    EXPECT_EQ(evalBinary(Opcode::Sub, 5, 7),
              static_cast<std::uint64_t>(-2));
    EXPECT_EQ(evalBinary(Opcode::And, 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(evalBinary(Opcode::Or, 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(evalBinary(Opcode::Xor, 0b1100, 0b1010), 0b0110u);
}

TEST(CpuSemantics, Shifts)
{
    EXPECT_EQ(evalBinary(Opcode::Sll, 1, 10), 1024u);
    EXPECT_EQ(evalBinary(Opcode::Srl, 1024, 10), 1u);
    EXPECT_EQ(evalBinary(Opcode::Sra, static_cast<std::uint64_t>(-64),
                         3),
              static_cast<std::uint64_t>(-8));
    // Shift amounts use only the low six bits, all six of them.
    EXPECT_EQ(evalBinary(Opcode::Sll, 1, 64 + 3), 8u);
    EXPECT_EQ(evalBinary(Opcode::Sll, 1, 40), 1ull << 40);
    EXPECT_EQ(evalBinary(Opcode::Srl, 1ull << 40, 40), 1u);
    EXPECT_EQ(evalBinary(Opcode::Sra,
                         static_cast<std::uint64_t>(-(1ll << 40)), 40),
              static_cast<std::uint64_t>(-1));
}

TEST(CpuSemantics, SetLessThanIsSigned)
{
    EXPECT_EQ(evalBinary(Opcode::Slt, static_cast<std::uint64_t>(-1),
                         1),
              1u);
    EXPECT_EQ(evalBinary(Opcode::Slt, 1,
                         static_cast<std::uint64_t>(-1)),
              0u);
}

TEST(CpuSemantics, MulDiv)
{
    EXPECT_EQ(evalBinary(Opcode::Mul, 6, 7), 42u);
    EXPECT_EQ(evalBinary(Opcode::Div, 42, 6), 7u);
    EXPECT_EQ(evalBinary(Opcode::Div, static_cast<std::uint64_t>(-42),
                         6),
              static_cast<std::uint64_t>(-7));
    // Division by zero yields all ones (RISC-V convention).
    EXPECT_EQ(evalBinary(Opcode::Div, 42, 0), ~0ull);
    // Signed-overflow case INT64_MIN / -1: the result is the dividend
    // (RISC-V convention); in plain C++ the division itself would be
    // undefined behavior.
    EXPECT_EQ(evalBinary(Opcode::Div,
                         static_cast<std::uint64_t>(
                             std::numeric_limits<std::int64_t>::min()),
                         static_cast<std::uint64_t>(-1)),
              static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::min()));
}

TEST(CpuSemantics, FloatingPoint)
{
    EXPECT_DOUBLE_EQ(
        asDouble(evalBinary(Opcode::Fadd, bits(1.5), bits(2.25))),
        3.75);
    EXPECT_DOUBLE_EQ(
        asDouble(evalBinary(Opcode::Fmul, bits(3.0), bits(0.5))), 1.5);
    EXPECT_DOUBLE_EQ(
        asDouble(evalBinary(Opcode::Fdiv, bits(7.0), bits(2.0))), 3.5);
}

TEST(CpuSemantics, Immediates)
{
    workload::ProgramBuilder pb("imm");
    pb.emit(Opcode::Addi, 1, 0, 0, -5);
    pb.emit(Opcode::Andi, 2, 1, 0, 0xff);
    pb.emit(Opcode::Ori, 3, 0, 0, 0x30);
    pb.emit(Opcode::Xori, 4, 3, 0, 0x11);
    pb.emit(Opcode::Slti, 5, 1, 0, 0);
    pb.emit(Opcode::Ori, 6, 2, 0, 0x0f); // overlaps r2's set bits
    pb.emit(Opcode::Nop, 0, 0, 0, 0);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(1), static_cast<std::uint64_t>(-5));
    EXPECT_EQ(run.core.reg(2), 0xfbu); // low byte of -5
    EXPECT_EQ(run.core.reg(3), 0x30u);
    EXPECT_EQ(run.core.reg(4), 0x21u);
    EXPECT_EQ(run.core.reg(5), 1u); // -5 < 0
    EXPECT_EQ(run.core.reg(6), 0xffu);
}

TEST(CpuSemantics, RegisterZeroIsHardwired)
{
    workload::ProgramBuilder pb("rzero");
    pb.emit(Opcode::Addi, 0, 0, 0, 99);
    pb.emit(Opcode::Add, 1, 0, 0, 0);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(0), 0u);
    EXPECT_EQ(run.core.reg(1), 0u);
}

TEST(CpuSemantics, LoadStore)
{
    workload::ProgramBuilder pb("mem");
    const std::uint64_t base = pb.allocData(64);
    pb.initWord(base + 8, 0xfeedface);
    pb.loadImm(1, base);
    pb.emit(Opcode::Ld, 2, 1, 0, 8);
    pb.emit(Opcode::Addi, 3, 2, 0, 1);
    pb.emit(Opcode::St, 0, 1, 3, 16);
    pb.emit(Opcode::Ld, 4, 1, 0, 16);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(2), 0xfeedfaceu);
    EXPECT_EQ(run.core.reg(4), 0xfeedfaceu + 1);
    EXPECT_EQ(run.memory.read(base + 16), 0xfeedfaceu + 1);
}

TEST(CpuSemantics, BranchOutcomes)
{
    struct Case
    {
        Opcode op;
        std::int64_t a, b;
        bool taken;
    };
    const Case cases[] = {
        {Opcode::Beq, 3, 3, true},   {Opcode::Beq, 3, 4, false},
        {Opcode::Bne, 3, 4, true},   {Opcode::Bne, 3, 3, false},
        {Opcode::Blt, -1, 0, true},  {Opcode::Blt, 0, -1, false},
        {Opcode::Bge, 0, -1, true},  {Opcode::Bge, -1, 0, false},
        {Opcode::Bge, 5, 5, true},
    };
    for (const Case &c : cases) {
        workload::ProgramBuilder pb(std::string(isa::mnemonic(c.op)));
        pb.loadImm(1, static_cast<std::uint64_t>(c.a));
        pb.loadImm(2, static_cast<std::uint64_t>(c.b));
        const std::uint32_t br = pb.emitBranch(c.op, 1, 2);
        pb.emit(Opcode::Addi, 3, 0, 0, 1); // fallthrough marker
        const std::uint32_t target = pb.here();
        pb.emit(Opcode::Halt, 0, 0, 0, 0);
        pb.patchTarget(br, target);
        MiniRun run(pb.finalize(0));
        run.runAll();
        EXPECT_EQ(run.core.reg(3), c.taken ? 0u : 1u)
            << "op=" << static_cast<int>(c.op) << " a=" << c.a
            << " b=" << c.b;
    }
}

TEST(CpuSemantics, JalWritesLinkAndJumps)
{
    workload::ProgramBuilder pb("jal");
    pb.emit(Opcode::Jal, 1, 0, 0, 2); // jump over next inst
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(1), 1u); // return index
    EXPECT_EQ(run.core.reg(3), 0u); // skipped
}

TEST(CpuSemantics, JalrJumpsThroughRegister)
{
    workload::ProgramBuilder pb("jalr");
    pb.loadImm(2, 3);
    pb.emit(Opcode::Jalr, 1, 2, 0, 0); // to index 3
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(3), 0u);
    EXPECT_EQ(run.core.reg(1), 2u);
}

TEST(CpuSemantics, HaltStopsExecution)
{
    workload::ProgramBuilder pb("halt");
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    MiniRun run(pb.finalize(0));
    cpu::DynInst rec;
    EXPECT_TRUE(run.core.step(rec));  // the halt itself
    EXPECT_TRUE(run.core.halted());
    EXPECT_FALSE(run.core.step(rec)); // nothing more
    EXPECT_EQ(run.core.reg(3), 0u);
    EXPECT_EQ(run.core.retired(), 1u);
}

TEST(CpuSemantics, DynInstRecordsMemoryAddress)
{
    workload::ProgramBuilder pb("rec");
    const std::uint64_t base = pb.allocData(64);
    pb.loadImm(1, base);
    pb.emit(Opcode::Ld, 2, 1, 0, 24);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    cpu::DynInst rec;
    run.core.step(rec); // lui
    run.core.step(rec); // ld
    EXPECT_TRUE(rec.is_load);
    EXPECT_EQ(rec.mem_addr, base + 24);
    EXPECT_TRUE(rec.writes_rd);
    EXPECT_EQ(rec.rd, 2);
}

TEST(CpuSemantics, DynInstRecordsBranchTaken)
{
    workload::ProgramBuilder pb("recbr");
    const std::uint32_t br = pb.emitBranch(Opcode::Beq, 0, 0);
    pb.emit(Opcode::Nop, 0, 0, 0, 0);
    pb.patchTarget(br, 2);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    cpu::DynInst rec;
    run.core.step(rec);
    EXPECT_TRUE(rec.is_branch);
    EXPECT_TRUE(rec.taken);
    EXPECT_EQ(rec.next_pc, 2u);
}
