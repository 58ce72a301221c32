/**
 * @file
 * Per-opcode semantics of the functional core, as tables of expected
 * values. Every program runs through the execute loop
 * (FunctionalCore::execute<NoHooks>), the one definition of the ISA;
 * the DynInst tests run it through step(), its one-op driver. The
 * tables cover all 30 opcodes and their edge cases: wrap-around,
 * division by zero and INT64_MIN / -1, shift amounts of 32-63 and of
 * 64 or more, the signedness of Sra, Slt, Slti, Blt and Bge, writes
 * to r0, the Jal/Jalr link values, and loads and stores at the edges
 * of memory.
 */

#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "workload/program_builder.hh"

using namespace pgss;
using isa::Opcode;

namespace
{

constexpr std::uint64_t int_min =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min());
constexpr std::uint64_t int_max =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

/** The two's-complement register value of @p v. */
constexpr std::uint64_t
u(std::int64_t v)
{
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
bits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

/** Run a tiny program on the execute loop; inspect the core after. */
struct MiniRun
{
    isa::Program program;
    mem::MainMemory memory;
    cpu::FunctionalCore core;

    explicit MiniRun(isa::Program p)
        : program(std::move(p)), memory(program.data_bytes),
          core(program, memory)
    {
        if (!program.data_words.empty()) {
            auto image = program.data_words;
            image.resize(memory.words().size(), 0);
            memory.setWords(std::move(image));
        }
    }

    /** Run to Halt on the execute loop. */
    void
    runAll()
    {
        cpu::NoHooks hooks;
        std::uint64_t since = 0;
        core.execute(std::numeric_limits<std::uint64_t>::max(), since,
                     hooks);
    }

    /** The memory word at byte address @p addr. */
    std::uint64_t
    word(std::uint64_t addr) const
    {
        return memory.words()[addr / 8];
    }
};

/**
 * One expected value: r3 = a OP b for an op that reads rs2, else
 * r3 = a OP imm with b as the immediate.
 */
struct Row
{
    Opcode op;
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t expected;
};

/** r1 = a; r2 = b; r3 = r1 OP (r2 or imm b); halt. @return r3. */
std::uint64_t
evaluate(const Row &row)
{
    workload::ProgramBuilder pb(std::string(isa::mnemonic(row.op)));
    pb.loadImm(1, row.a);
    pb.loadImm(2, row.b);
    pb.emit(row.op, 3, 1, isa::opInfo(row.op).reads_rs2 ? 2 : 0,
            static_cast<std::int64_t>(row.b));
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    return run.core.reg(3);
}

void
expectRows(std::initializer_list<Row> rows)
{
    for (const Row &row : rows) {
        EXPECT_EQ(evaluate(row), row.expected)
            << isa::mnemonic(row.op) << std::hex << " a=0x" << row.a
            << " b=0x" << row.b;
    }
}

/** Conditional branch over a fallthrough marker: taken or not. */
bool
branchTaken(Opcode op, std::uint64_t a, std::uint64_t b)
{
    workload::ProgramBuilder pb(std::string(isa::mnemonic(op)));
    pb.loadImm(1, a);
    pb.loadImm(2, b);
    const std::uint32_t br = pb.emitBranch(op, 1, 2);
    pb.emit(Opcode::Addi, 3, 0, 0, 1); // fallthrough marker
    const std::uint32_t target = pb.here();
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    pb.patchTarget(br, target);
    MiniRun run(pb.finalize(0));
    run.runAll();
    return run.core.reg(3) == 0;
}

/** @p op (Ld or St) at byte address @p addr in 64 bytes of data. */
void
accessMemory(Opcode op, std::uint64_t addr)
{
    workload::ProgramBuilder pb(std::string(isa::mnemonic(op)));
    pb.allocData(64);
    pb.loadImm(1, addr);
    pb.loadImm(2, 5);
    if (op == Opcode::Ld)
        pb.emit(Opcode::Ld, 3, 1, 0, 0);
    else
        pb.emit(Opcode::St, 0, 1, 2, 0);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    ASSERT_EQ(run.memory.words().size(), 8u);
    run.runAll();
}

} // namespace

TEST(CpuSemantics, IntegerAlu)
{
    expectRows({
        {Opcode::Add, 5, 7, 12},
        {Opcode::Add, ~0ull, 1, 0},
        {Opcode::Add, int_max, 1, int_min},
        {Opcode::Sub, 5, 7, u(-2)},
        {Opcode::Sub, 0, 1, ~0ull},
        {Opcode::Sub, int_min, 1, int_max},
        {Opcode::And, 0b1100, 0b1010, 0b1000},
        {Opcode::And, ~0ull, int_min, int_min},
        {Opcode::Or, 0b1100, 0b1010, 0b1110},
        {Opcode::Or, int_min, 1, int_min | 1},
        {Opcode::Xor, 0b1100, 0b1010, 0b0110},
        {Opcode::Xor, ~0ull, 0xf0, ~0xf0ull},
    });
}

TEST(CpuSemantics, Shifts)
{
    expectRows({
        {Opcode::Sll, 1, 10, 1024},
        {Opcode::Srl, 1024, 10, 1},
        {Opcode::Sra, u(-64), 3, u(-8)},
        // Shift amounts use only the low six bits, all six of them:
        // 32-63 shift by that much, 64 and more wrap.
        {Opcode::Sll, 1, 64 + 3, 8},
        {Opcode::Sll, 1, 40, 1ull << 40},
        {Opcode::Srl, 1ull << 40, 40, 1},
        {Opcode::Sra, u(-(1ll << 40)), 40, u(-1)},
        {Opcode::Sll, 1, 32, 1ull << 32},
        {Opcode::Sll, 3, 63, 1ull << 63},
        {Opcode::Sll, 3, ~0ull, 1ull << 63},
        {Opcode::Srl, ~0ull, 32, 0xffff'ffffull},
        {Opcode::Srl, 1ull << 63, 63, 1},
        {Opcode::Srl, 1024, 128 + 10, 1},
        {Opcode::Sra, int_min, 63, u(-1)},
        {Opcode::Sra, u(-1024), 64 + 2, u(-256)},
        // Sra is arithmetic: the sign bit fills, and a positive value
        // stays positive.
        {Opcode::Sra, int_min, 32, u(-(1ll << 31))},
        {Opcode::Sra, 1ull << 62, 62, 1},
        {Opcode::Srl, int_min, 32, 1ull << 31},
    });
}

TEST(CpuSemantics, SetLessThanIsSigned)
{
    expectRows({
        {Opcode::Slt, u(-1), 1, 1},
        {Opcode::Slt, 1, u(-1), 0},
        {Opcode::Slt, 3, 3, 0},
        {Opcode::Slt, int_min, int_max, 1},
        {Opcode::Slt, int_max, int_min, 0},
        {Opcode::Slti, u(-10), u(-5), 1},
        {Opcode::Slti, 5, u(-1), 0},
        {Opcode::Slti, u(-1), 0, 1},
        {Opcode::Slti, 0, 0, 0},
        {Opcode::Slti, int_min, int_max, 1},
    });
}

TEST(CpuSemantics, MulDiv)
{
    expectRows({
        {Opcode::Mul, 6, 7, 42},
        {Opcode::Mul, u(-3), 5, u(-15)},
        {Opcode::Mul, 1ull << 32, 1ull << 32, 0},
        {Opcode::Mul, 0xffff'ffffull, 0xffff'ffffull,
         0xffff'fffe'0000'0001ull},
        {Opcode::Div, 42, 6, 7},
        {Opcode::Div, u(-42), 6, u(-7)},
        // The quotient truncates toward zero.
        {Opcode::Div, 7, u(-2), u(-3)},
        {Opcode::Div, u(-7), 2, u(-3)},
        {Opcode::Div, int_min, 2, u(-(1ll << 62))},
        // Division by zero yields all ones (RISC-V convention).
        {Opcode::Div, 42, 0, ~0ull},
        {Opcode::Div, u(-42), 0, ~0ull},
        {Opcode::Div, 0, 0, ~0ull},
        // Signed-overflow case INT64_MIN / -1: the result is the
        // dividend (RISC-V convention); in plain C++ the division
        // itself would be undefined behavior.
        {Opcode::Div, int_min, u(-1), int_min},
    });
}

TEST(CpuSemantics, FloatingPoint)
{
    const double inf = std::numeric_limits<double>::infinity();
    expectRows({
        {Opcode::Fadd, bits(1.5), bits(2.25), bits(3.75)},
        {Opcode::Fadd, bits(0.1), bits(0.2), bits(0.30000000000000004)},
        {Opcode::Fadd, bits(1.0), bits(-1.0), bits(0.0)},
        {Opcode::Fmul, bits(3.0), bits(0.5), bits(1.5)},
        {Opcode::Fmul, bits(-2.0), bits(0.0), bits(-0.0)},
        {Opcode::Fdiv, bits(7.0), bits(2.0), bits(3.5)},
        {Opcode::Fdiv, bits(1.0), bits(3.0), bits(1.0 / 3.0)},
        {Opcode::Fdiv, bits(1.0), bits(0.0), bits(inf)},
        {Opcode::Fdiv, bits(-1.0), bits(0.0), bits(-inf)},
    });
}

TEST(CpuSemantics, Immediates)
{
    expectRows({
        {Opcode::Addi, 0, u(-5), u(-5)},
        {Opcode::Addi, 10, u(-3), 7},
        {Opcode::Addi, ~0ull, 1, 0},
        {Opcode::Andi, u(-5), 0xff, 0xfb}, // low byte of -5
        {Opcode::Andi, 0x1234, u(-16), 0x1230},
        {Opcode::Ori, 0, 0x30, 0x30},
        {Opcode::Ori, 0xfb, 0x0f, 0xff}, // overlaps the set bits
        {Opcode::Ori, 1, int_min, int_min | 1},
        {Opcode::Xori, 0x30, 0x11, 0x21},
        {Opcode::Xori, 0x0f, u(-1), ~0x0full},
        {Opcode::Slti, u(-5), 0, 1}, // -5 < 0
        // Lui loads the whole immediate and reads no register.
        {Opcode::Lui, 123, u(-5), u(-5)},
        {Opcode::Lui, 0, 0x1234'5678'9abc'def0ull,
         0x1234'5678'9abc'def0ull},
    });

    // Nop advances the pc and changes nothing else.
    workload::ProgramBuilder pb("nop");
    pb.loadImm(1, 42);
    pb.emit(Opcode::Nop, 1, 1, 1, 7);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(1), 42u);
    for (int r = 2; r < isa::num_regs; ++r)
        EXPECT_EQ(run.core.reg(r), 0u) << "r" << r;
    EXPECT_EQ(run.core.retired(), 3u);
    EXPECT_EQ(run.core.pc(), 3u);
}

TEST(CpuSemantics, RegisterZeroIsHardwired)
{
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

    // Every opcode that writes rd, writing r0 with a nonzero result;
    // the op after it reads r0 back.
    int writers = 0;
    for (std::size_t i = 0; i < isa::num_opcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        if (!isa::opInfo(op).writes_rd)
            continue;
        ++writers;
        workload::ProgramBuilder pb(std::string(isa::mnemonic(op)));
        const std::uint64_t base = pb.allocData(64);
        pb.initWord(base + 8, 77);
        pb.loadImm(1, u(-88));
        pb.loadImm(2, 9);
        pb.loadImm(3, base + 8);
        pb.loadImm(4, 5); // Jalr's target
        if (op == Opcode::Ld)
            pb.emit(op, 0, 3, 0, 0);
        else if (op == Opcode::Jal)
            pb.emit(op, 0, 0, 0, 5);
        else if (op == Opcode::Jalr)
            pb.emit(op, 0, 4, 0, 0);
        else
            pb.emit(op, 0, 1, 2, 9); // rs2 or the immediate
        pb.emit(Opcode::Add, 5, 0, 0, 0);
        pb.emit(Opcode::Halt, 0, 0, 0, 0);
        MiniRun run(pb.finalize(0));
        run.runAll();
        EXPECT_EQ(run.core.reg(0), 0u) << isa::mnemonic(op);
        EXPECT_EQ(run.core.reg(5), 0u) << isa::mnemonic(op);
        EXPECT_TRUE(run.core.halted()) << isa::mnemonic(op);
    }
    EXPECT_EQ(writers, 23);
}

TEST(CpuSemantics, LoadStore)
{
    workload::ProgramBuilder pb("mem");
    const std::uint64_t base = pb.allocData(64);
    pb.initWord(base + 8, 0xfeedface);
    pb.initWord(base + 24, 0x1111);
    pb.initWord(base + 56, 0x2222);
    pb.loadImm(1, base);
    pb.emit(Opcode::Ld, 2, 1, 0, 8);
    pb.emit(Opcode::Addi, 3, 2, 0, 1);
    pb.emit(Opcode::St, 0, 1, 3, 16);
    pb.emit(Opcode::Ld, 4, 1, 0, 16);
    // A negative offset, and the last word of memory.
    pb.loadImm(5, base + 32);
    pb.emit(Opcode::Ld, 6, 5, 0, -8);
    pb.emit(Opcode::Ld, 7, 5, 0, 24);
    pb.emit(Opcode::St, 0, 5, 6, 24);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    ASSERT_EQ(run.memory.words().size(), 8u);
    run.runAll();
    EXPECT_EQ(run.core.reg(2), 0xfeedfaceu);
    EXPECT_EQ(run.core.reg(4), 0xfeedfaceu + 1);
    EXPECT_EQ(run.word(base + 16), 0xfeedfaceu + 1);
    EXPECT_EQ(run.core.reg(6), 0x1111u);
    EXPECT_EQ(run.core.reg(7), 0x2222u);
    // A store writes its word only.
    EXPECT_EQ(run.word(base + 56), 0x1111u);
    EXPECT_EQ(run.word(base + 8), 0xfeedfaceu);
    EXPECT_EQ(run.word(base + 24), 0x1111u);
    EXPECT_EQ(run.word(base + 48), 0u);
}

TEST(CpuSemantics, BranchOutcomes)
{
    struct Case
    {
        Opcode op;
        std::uint64_t a, b;
        bool taken;
    };
    const Case cases[] = {
        {Opcode::Beq, 3, 3, true},
        {Opcode::Beq, 3, 4, false},
        {Opcode::Beq, int_min, int_min, true},
        {Opcode::Bne, 3, 4, true},
        {Opcode::Bne, 3, 3, false},
        {Opcode::Bne, u(-1), int_max, true},
        {Opcode::Blt, u(-1), 0, true},
        {Opcode::Blt, 0, u(-1), false},
        {Opcode::Blt, 5, 5, false},
        {Opcode::Blt, int_min, int_max, true},
        {Opcode::Blt, int_max, int_min, false},
        {Opcode::Bge, 0, u(-1), true},
        {Opcode::Bge, u(-1), 0, false},
        {Opcode::Bge, 5, 5, true},
        {Opcode::Bge, int_max, int_min, true},
        {Opcode::Bge, int_min, int_max, false},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(branchTaken(c.op, c.a, c.b), c.taken)
            << isa::mnemonic(c.op) << std::hex << " a=0x" << c.a
            << " b=0x" << c.b;
    }
}

TEST(CpuSemantics, JalWritesLinkAndJumps)
{
    workload::ProgramBuilder pb("jal");
    pb.emit(Opcode::Jal, 1, 0, 0, 2); // jump over next inst
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    pb.emit(Opcode::Jal, 5, 0, 0, 4); // link in another register
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(1), 1u); // return index
    EXPECT_EQ(run.core.reg(5), 3u);
    EXPECT_EQ(run.core.reg(3), 0u); // both skipped
    EXPECT_EQ(run.core.retired(), 3u);
}

TEST(CpuSemantics, JalrJumpsThroughRegister)
{
    workload::ProgramBuilder pb("jalr");
    pb.loadImm(2, 3);
    pb.emit(Opcode::Jalr, 1, 2, 0, 0); // to index 3
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    pb.loadImm(4, 2);
    pb.emit(Opcode::Jalr, 4, 4, 0, 4); // to 2 + 4: rs1 read first
    pb.emit(Opcode::Addi, 3, 0, 0, 1);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    run.runAll();
    EXPECT_EQ(run.core.reg(3), 0u);
    EXPECT_EQ(run.core.reg(1), 2u);
    EXPECT_EQ(run.core.reg(4), 5u); // the link overwrote the base
    EXPECT_EQ(run.core.retired(), 5u);
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
    pb.emit(Opcode::St, 0, 1, 2, 40);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    cpu::DynInst rec;
    run.core.step(rec); // lui
    EXPECT_FALSE(rec.is_load);
    EXPECT_EQ(rec.mem_addr, 0u);
    run.core.step(rec); // ld
    EXPECT_TRUE(rec.is_load);
    EXPECT_EQ(rec.mem_addr, base + 24);
    EXPECT_TRUE(rec.writes_rd);
    EXPECT_EQ(rec.rd, 2);
    EXPECT_EQ(rec.next_pc, 2u);
    run.core.step(rec); // st
    EXPECT_TRUE(rec.is_store);
    EXPECT_FALSE(rec.writes_rd);
    EXPECT_EQ(rec.mem_addr, base + 40);
}

TEST(CpuSemantics, DynInstRecordsBranchTaken)
{
    workload::ProgramBuilder pb("recbr");
    const std::uint32_t br = pb.emitBranch(Opcode::Beq, 0, 0);
    pb.emit(Opcode::Nop, 0, 0, 0, 0);
    pb.patchTarget(br, 2);
    const std::uint32_t fall = pb.emitBranch(Opcode::Bne, 0, 0);
    pb.patchTarget(fall, 0);
    pb.emit(Opcode::Halt, 0, 0, 0, 0);
    MiniRun run(pb.finalize(0));
    cpu::DynInst rec;
    run.core.step(rec);
    EXPECT_TRUE(rec.is_branch);
    EXPECT_TRUE(rec.taken);
    EXPECT_EQ(rec.next_pc, 2u);
    run.core.step(rec);
    EXPECT_EQ(rec.pc, 2u);
    EXPECT_FALSE(rec.taken);
    EXPECT_EQ(rec.next_pc, 3u);
}

// The execute loop's Ld and St check alignment and range before
// every access; the last valid word is 56, one past the end is 64.
TEST(CpuSemanticsDeathTest, UnalignedLoadPanics)
{
    EXPECT_DEATH(accessMemory(Opcode::Ld, 3), "unaligned memory read");
}

TEST(CpuSemanticsDeathTest, LoadOnePastTheEndPanics)
{
    EXPECT_DEATH(accessMemory(Opcode::Ld, 64), "memory read out of range");
}

TEST(CpuSemanticsDeathTest, UnalignedStorePanics)
{
    EXPECT_DEATH(accessMemory(Opcode::St, 5), "unaligned memory write");
}

TEST(CpuSemanticsDeathTest, StoreOnePastTheEndPanics)
{
    EXPECT_DEATH(accessMemory(Opcode::St, 64),
                 "memory write out of range");
}
