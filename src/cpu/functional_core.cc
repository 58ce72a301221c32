#include "cpu/functional_core.hh"

#include "obs/spans.hh"
#include "util/logging.hh"

namespace pgss::cpu
{

FunctionalCore::FunctionalCore(const isa::Program &program,
                               mem::MainMemory &memory)
    : program_(program), memory_(memory), pc_(program.entry)
{
}

void
FunctionalCore::setReg(int r, std::uint64_t v)
{
    if (r != isa::reg_zero)
        regs_[r] = v;
}

bool
FunctionalCore::step(DynInst &rec)
{
    using isa::Opcode;

    if (halted_)
        return false;

    util::panicIf(pc_ >= program_.code.size(),
                  "PC ran off the end of the program");
    const isa::Instruction &inst = program_.code[pc_];
    const isa::OpInfo &info = inst.info();

    rec.pc = pc_;
    rec.op = inst.op;
    rec.op_class = info.op_class;
    rec.rd = inst.rd;
    rec.rs1 = inst.rs1;
    rec.rs2 = inst.rs2;
    rec.writes_rd = info.writes_rd && inst.rd != isa::reg_zero;
    rec.reads_rs1 = info.reads_rs1;
    rec.reads_rs2 = info.reads_rs2;
    rec.is_branch = info.is_branch;
    rec.is_jump = info.is_jump;
    rec.taken = false;
    rec.is_load = info.op_class == isa::OpClass::MemRead;
    rec.is_store = info.op_class == isa::OpClass::MemWrite;
    rec.mem_addr = 0;

    const std::uint64_t a = regs_[inst.rs1];
    const std::uint64_t b = regs_[inst.rs2];
    std::uint64_t next = pc_ + 1;

    switch (inst.op) {
      case Opcode::Add:
        setReg(inst.rd, a + b);
        break;
      case Opcode::Sub:
        setReg(inst.rd, a - b);
        break;
      case Opcode::And:
        setReg(inst.rd, a & b);
        break;
      case Opcode::Or:
        setReg(inst.rd, a | b);
        break;
      case Opcode::Xor:
        setReg(inst.rd, a ^ b);
        break;
      case Opcode::Sll:
        setReg(inst.rd, a << (b & 63));
        break;
      case Opcode::Srl:
        setReg(inst.rd, a >> (b & 63));
        break;
      case Opcode::Sra:
        setReg(inst.rd, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(a) >> (b & 63)));
        break;
      case Opcode::Slt:
        setReg(inst.rd, static_cast<std::int64_t>(a) <
                                static_cast<std::int64_t>(b)
                            ? 1
                            : 0);
        break;
      case Opcode::Addi:
        setReg(inst.rd, a + static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Andi:
        setReg(inst.rd, a & static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Ori:
        setReg(inst.rd, a | static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Xori:
        setReg(inst.rd, a ^ static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Slti:
        setReg(inst.rd,
               static_cast<std::int64_t>(a) < inst.imm ? 1 : 0);
        break;
      case Opcode::Lui:
        setReg(inst.rd, static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Mul:
        setReg(inst.rd, a * b);
        break;
      case Opcode::Div:
        setReg(inst.rd, detail::divSigned(a, b));
        break;
      case Opcode::Fadd:
        setReg(inst.rd, detail::asBits(detail::asDouble(a) +
                                       detail::asDouble(b)));
        break;
      case Opcode::Fmul:
        setReg(inst.rd, detail::asBits(detail::asDouble(a) *
                                       detail::asDouble(b)));
        break;
      case Opcode::Fdiv:
        setReg(inst.rd, detail::asBits(detail::asDouble(a) /
                                       detail::asDouble(b)));
        break;
      case Opcode::Ld: {
        const std::uint64_t addr =
            a + static_cast<std::uint64_t>(inst.imm);
        rec.mem_addr = addr;
        setReg(inst.rd, memory_.read(addr));
        break;
      }
      case Opcode::St: {
        const std::uint64_t addr =
            a + static_cast<std::uint64_t>(inst.imm);
        rec.mem_addr = addr;
        memory_.write(addr, b);
        break;
      }
      case Opcode::Beq:
        rec.taken = a == b;
        break;
      case Opcode::Bne:
        rec.taken = a != b;
        break;
      case Opcode::Blt:
        rec.taken = static_cast<std::int64_t>(a) <
                    static_cast<std::int64_t>(b);
        break;
      case Opcode::Bge:
        rec.taken = static_cast<std::int64_t>(a) >=
                    static_cast<std::int64_t>(b);
        break;
      case Opcode::Jal:
        setReg(inst.rd, pc_ + 1);
        rec.taken = true;
        next = static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::Jalr:
        setReg(inst.rd, pc_ + 1);
        rec.taken = true;
        next = a + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        break;
      default:
        util::panic("unhandled opcode in FunctionalCore::step");
    }

    if (rec.is_branch && rec.taken)
        next = static_cast<std::uint64_t>(inst.imm);

    rec.next_pc = next;
    pc_ = next;
    ++retired_;
    return true;
}

void
FunctionalCore::buildFastTable()
{
    PGSS_SPAN("cpu.decode", Decode);
    fast_table_.clear();
    fast_table_.reserve(program_.code.size());
    for (const isa::Instruction &inst : program_.code) {
        FastOp f;
        f.imm = inst.imm;
        f.op = inst.op;
        // Writes to r0 are redirected to the scratch slot past the
        // architectural file, so the dispatch loop stores
        // unconditionally.
        f.rd = inst.rd == isa::reg_zero
                   ? static_cast<std::uint8_t>(isa::num_regs)
                   : inst.rd;
        f.rs1 = inst.rs1;
        f.rs2 = inst.rs2;
        fast_table_.push_back(f);
    }
}

std::uint64_t
FunctionalCore::runFast(std::uint64_t n)
{
    std::uint64_t since = 0;
    return runFastWith(n, since, [](std::uint64_t, std::uint64_t) {});
}

} // namespace pgss::cpu
