/** @file Tests for the program builder. */

#include <gtest/gtest.h>

#include "workload/program_builder.hh"

using namespace pgss;
using namespace pgss::workload;
using isa::Opcode;

TEST(Builder, HereAdvancesWithEmits)
{
    ProgramBuilder b("t");
    EXPECT_EQ(b.here(), 0u);
    b.emit(Opcode::Nop, 0, 0, 0, 0);
    EXPECT_EQ(b.here(), 1u);
    b.emit(Opcode::Addi, 1, 0, 0, 5);
    EXPECT_EQ(b.here(), 2u);
}

TEST(Builder, EmitReturnsIndex)
{
    ProgramBuilder b("t");
    EXPECT_EQ(b.emit(Opcode::Nop, 0, 0, 0, 0), 0u);
    EXPECT_EQ(b.emit(Opcode::Nop, 0, 0, 0, 0), 1u);
}

TEST(Builder, PatchTargetSetsBranchImmediate)
{
    ProgramBuilder b("t");
    const std::uint32_t br = b.emitBranch(Opcode::Beq, 1, 2);
    b.emit(Opcode::Nop, 0, 0, 0, 0);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    b.patchTarget(br, 2);
    const isa::Program p = b.finalize(0);
    EXPECT_EQ(p.code[br].imm, 2);
}

TEST(BuilderDeathTest, EmitBranchRejectsNonBranch)
{
    ProgramBuilder b("t");
    EXPECT_DEATH(b.emitBranch(Opcode::Add, 1, 2), "branch opcode");
}

TEST(BuilderDeathTest, PatchTargetRejectsNonControl)
{
    ProgramBuilder b("t");
    b.emit(Opcode::Add, 1, 2, 3, 0);
    EXPECT_DEATH(b.patchTarget(0, 1), "non-control");
}

TEST(BuilderDeathTest, PatchTargetRejectsOutOfRange)
{
    ProgramBuilder b("t");
    EXPECT_DEATH(b.patchTarget(3, 0), "out of range");
}

TEST(Builder, AllocDataRespectsAlignment)
{
    ProgramBuilder b("t");
    const std::uint64_t a = b.allocData(10, 8);
    const std::uint64_t c = b.allocData(100, 64);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(c % 64, 0u);
    EXPECT_GE(c, a + 10);
}

TEST(Builder, DataBytesGrowsWithAllocations)
{
    ProgramBuilder b("t");
    b.allocData(128);
    EXPECT_GE(b.dataBytes(), 128u);
    b.allocData(64);
    EXPECT_GE(b.dataBytes(), 192u);
}

TEST(Builder, InitWordAppearsInImage)
{
    ProgramBuilder b("t");
    const std::uint64_t base = b.allocData(64);
    b.initWord(base + 16, 0xabcdef);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    const isa::Program p = b.finalize(0);
    EXPECT_EQ(p.data_words[(base + 16) / 8], 0xabcdefu);
    EXPECT_EQ(p.data_bytes, p.data_words.size() * 8);
}

TEST(BuilderDeathTest, InitWordOutsideAllocationPanics)
{
    ProgramBuilder b("t");
    b.allocData(8);
    EXPECT_DEATH(b.initWord(64, 1), "outside allocated");
}

TEST(Builder, LoadImmMaterialisesFullWidth)
{
    ProgramBuilder b("t");
    b.loadImm(4, 0xdeadbeefcafef00dull);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    const isa::Program p = b.finalize(0);
    EXPECT_EQ(p.code[0].op, Opcode::Lui);
    EXPECT_EQ(static_cast<std::uint64_t>(p.code[0].imm),
              0xdeadbeefcafef00dull);
}

TEST(BuilderDeathTest, FinalizeRejectsBadEntry)
{
    ProgramBuilder b("t");
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    EXPECT_DEATH(b.finalize(10), "entry out of range");
}

TEST(Builder, FinalizePropagatesName)
{
    ProgramBuilder b("my-workload");
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    EXPECT_EQ(b.finalize(0).name, "my-workload");
}
