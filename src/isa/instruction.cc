#include "isa/instruction.hh"

#include <cstdio>

namespace pgss::isa
{

std::string
disassemble(const Instruction &inst, std::uint64_t pc)
{
    const OpInfo &info = inst.info();
    char buf[96];
    if (info.is_branch) {
        std::snprintf(buf, sizeof(buf), "%6lu: %-5s r%u, r%u, -> %ld",
                      static_cast<unsigned long>(pc),
                      std::string(info.mnemonic).c_str(), inst.rs1,
                      inst.rs2, static_cast<long>(inst.imm));
    } else if (info.is_jump) {
        if (inst.op == Opcode::Jalr) {
            std::snprintf(buf, sizeof(buf),
                          "%6lu: %-5s r%u, r%u + %ld",
                          static_cast<unsigned long>(pc),
                          std::string(info.mnemonic).c_str(), inst.rd,
                          inst.rs1, static_cast<long>(inst.imm));
        } else {
            std::snprintf(buf, sizeof(buf), "%6lu: %-5s r%u, -> %ld",
                          static_cast<unsigned long>(pc),
                          std::string(info.mnemonic).c_str(), inst.rd,
                          static_cast<long>(inst.imm));
        }
    } else if (info.op_class == OpClass::MemRead) {
        std::snprintf(buf, sizeof(buf), "%6lu: %-5s r%u, %ld(r%u)",
                      static_cast<unsigned long>(pc),
                      std::string(info.mnemonic).c_str(), inst.rd,
                      static_cast<long>(inst.imm), inst.rs1);
    } else if (info.op_class == OpClass::MemWrite) {
        std::snprintf(buf, sizeof(buf), "%6lu: %-5s r%u, %ld(r%u)",
                      static_cast<unsigned long>(pc),
                      std::string(info.mnemonic).c_str(), inst.rs2,
                      static_cast<long>(inst.imm), inst.rs1);
    } else if (info.op_class == OpClass::NoOp) {
        std::snprintf(buf, sizeof(buf), "%6lu: %s",
                      static_cast<unsigned long>(pc),
                      std::string(info.mnemonic).c_str());
    } else if (info.reads_rs2) {
        std::snprintf(buf, sizeof(buf), "%6lu: %-5s r%u, r%u, r%u",
                      static_cast<unsigned long>(pc),
                      std::string(info.mnemonic).c_str(), inst.rd,
                      inst.rs1, inst.rs2);
    } else {
        std::snprintf(buf, sizeof(buf), "%6lu: %-5s r%u, r%u, %ld",
                      static_cast<unsigned long>(pc),
                      std::string(info.mnemonic).c_str(), inst.rd,
                      inst.rs1, static_cast<long>(inst.imm));
    }
    return buf;
}

} // namespace pgss::isa
