/**
 * @file
 * Pre-decoded instruction representation. Programs are stored as a
 * flat vector of Instruction, indexed by "pc" = instruction index.
 * The functional core copies them once per program into its execute
 * loop's operand table (cpu/functional_core.hh), so there is no
 * decode cost on the simulator's hot path.
 */

#ifndef PGSS_ISA_INSTRUCTION_HH
#define PGSS_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/opcodes.hh"

namespace pgss::isa
{

/** Number of general-purpose registers; register 0 reads as zero. */
constexpr int num_regs = 32;

/** Register index of the hard-wired zero register. */
constexpr int reg_zero = 0;

/**
 * One pre-decoded instruction. Branch/jump targets live in imm as an
 * absolute instruction index; memory instructions use imm as a signed
 * byte offset added to regs[rs1].
 */
struct Instruction
{
    Opcode op = Opcode::Nop; ///< operation
    std::uint8_t rd = 0;     ///< destination register
    std::uint8_t rs1 = 0;    ///< first source register
    std::uint8_t rs2 = 0;    ///< second source register
    std::int64_t imm = 0;    ///< immediate / offset / target index

    /** Static property lookup for this instruction's opcode. */
    const OpInfo &info() const { return opInfo(op); }
};

/**
 * Render @p inst as text, e.g. "beq r3, r0, -> 1024".
 * @param pc the instruction's own index (annotated in the output).
 */
std::string disassemble(const Instruction &inst, std::uint64_t pc);

} // namespace pgss::isa

#endif // PGSS_ISA_INSTRUCTION_HH
