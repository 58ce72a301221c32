/**
 * @file
 * The dynamic-instruction record handed from the functional core to
 * downstream consumers (timing model, BBV tracker, branch-predictor
 * training). PGSS-Sim uses execute-first simulation: the functional
 * core retires an instruction and everything that needs timing or
 * profile information consumes this record.
 */

#ifndef PGSS_CPU_DYN_INST_HH
#define PGSS_CPU_DYN_INST_HH

#include <cstdint>

#include "isa/opcodes.hh"

namespace pgss::cpu
{

/** One retired instruction, with everything timing/profiling needs. */
struct DynInst
{
    std::uint64_t pc = 0;       ///< instruction index
    std::uint64_t next_pc = 0;  ///< index of the next instruction
    isa::Opcode op = isa::Opcode::Nop;
    isa::OpClass op_class = isa::OpClass::NoOp;

    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    bool writes_rd = false;
    bool reads_rs1 = false;
    bool reads_rs2 = false;

    bool is_branch = false;  ///< conditional branch
    bool is_jump = false;    ///< unconditional jump
    bool taken = false;      ///< control transfer taken

    bool is_load = false;
    bool is_store = false;
    std::uint64_t mem_addr = 0; ///< byte address for loads/stores
};

/** How the branch unit predicts one instruction. */
enum class ControlKind : std::uint8_t
{
    None,   ///< not a control transfer
    Branch, ///< conditional: direction predictor, BTB when taken
    Jump,   ///< unconditional, not a call or return: BTB
    Call,   ///< Jal writing the link register: BTB, then RAS push
    Return, ///< Jalr through the link register: RAS pop
};

/**
 * Classify a retired instruction for the branch unit: a Jal whose
 * (architectural) rd is @p link_reg is a call, a Jalr whose rs1 is
 * @p link_reg a return.
 */
inline ControlKind
controlKind(bool is_branch, bool is_jump, isa::Opcode op, std::uint8_t rd,
            std::uint8_t rs1, std::uint8_t link_reg)
{
    if (is_branch)
        return ControlKind::Branch;
    if (!is_jump)
        return ControlKind::None;
    if (op == isa::Opcode::Jalr && rs1 == link_reg)
        return ControlKind::Return;
    if (op == isa::Opcode::Jal && rd == link_reg)
        return ControlKind::Call;
    return ControlKind::Jump;
}

} // namespace pgss::cpu

#endif // PGSS_CPU_DYN_INST_HH
