/** @file Tests for opcode metadata and the disassembler. */

#include <gtest/gtest.h>

#include "isa/instruction.hh"
#include "isa/program.hh"

using namespace pgss::isa;

class OpcodeSweep : public ::testing::TestWithParam<int>
{
  protected:
    Opcode op() const { return static_cast<Opcode>(GetParam()); }
};

TEST_P(OpcodeSweep, InfoHasMnemonic)
{
    EXPECT_FALSE(opInfo(op()).mnemonic.empty());
}

TEST_P(OpcodeSweep, BranchAndJumpAreExclusive)
{
    const OpInfo &info = opInfo(op());
    EXPECT_FALSE(info.is_branch && info.is_jump);
}

TEST_P(OpcodeSweep, BranchesReadBothSourcesAndWriteNothing)
{
    const OpInfo &info = opInfo(op());
    if (info.is_branch) {
        EXPECT_TRUE(info.reads_rs1);
        EXPECT_TRUE(info.reads_rs2);
        EXPECT_FALSE(info.writes_rd);
        EXPECT_EQ(info.op_class, OpClass::Control);
    }
}

TEST_P(OpcodeSweep, MemoryOpsHaveMemoryClass)
{
    const OpInfo &info = opInfo(op());
    if (op() == Opcode::Ld) {
        EXPECT_EQ(info.op_class, OpClass::MemRead);
    }
    if (op() == Opcode::St) {
        EXPECT_EQ(info.op_class, OpClass::MemWrite);
        EXPECT_FALSE(info.writes_rd);
    }
}

TEST_P(OpcodeSweep, DisassembleProducesMnemonicAndPc)
{
    Instruction inst;
    inst.op = op();
    inst.rd = 3;
    inst.rs1 = 4;
    inst.rs2 = 5;
    inst.imm = 100;
    const std::string text = disassemble(inst, 17);
    EXPECT_NE(text.find(std::string(mnemonic(op()))),
              std::string::npos);
    EXPECT_NE(text.find("17"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeSweep,
    ::testing::Range(0, static_cast<int>(num_opcodes)));

TEST(Isa, MnemonicsAreUnique)
{
    for (std::size_t a = 0; a < num_opcodes; ++a)
        for (std::size_t b = a + 1; b < num_opcodes; ++b)
            EXPECT_NE(mnemonic(static_cast<Opcode>(a)),
                      mnemonic(static_cast<Opcode>(b)));
}

TEST(Isa, InstAddrIsFourBytesPerInstruction)
{
    EXPECT_EQ(instAddr(0), 0u);
    EXPECT_EQ(instAddr(1), 4u);
    EXPECT_EQ(instAddr(100), 400u);
}

TEST(Isa, ProgramSizeReflectsCode)
{
    Program p;
    EXPECT_EQ(p.size(), 0u);
    p.code.resize(5);
    EXPECT_EQ(p.size(), 5u);
}

TEST(Isa, DisassembleFormatsBranchTarget)
{
    Instruction inst{Opcode::Beq, 0, 1, 2, 64};
    const std::string text = disassemble(inst, 0);
    EXPECT_NE(text.find("-> 64"), std::string::npos);
}

TEST(Isa, DisassembleFormatsMemoryOffset)
{
    Instruction ld{Opcode::Ld, 7, 3, 0, 16};
    const std::string text = disassemble(ld, 1);
    EXPECT_NE(text.find("16(r3)"), std::string::npos);
}
