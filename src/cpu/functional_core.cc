#include "cpu/functional_core.hh"

#include "obs/spans.hh"

namespace pgss::cpu
{

FunctionalCore::FunctionalCore(const isa::Program &program,
                               mem::MainMemory &memory,
                               std::uint8_t link_reg)
    : program_(program), memory_(memory), link_reg_(link_reg),
      pc_(program.entry)
{
}

bool
FunctionalCore::step(DynInst &rec)
{
    if (halted_)
        return false;
    RecordHooks hooks{{}, decodedInsts()};
    std::uint64_t since = 0;
    execute(1, since, hooks);
    rec = hooks.rec;
    return true;
}

void
FunctionalCore::buildTables()
{
    PGSS_SPAN("cpu.decode", Decode);
    fast_table_.clear();
    fast_table_.reserve(program_.code.size());
    decoded_.clear();
    decoded_.reserve(program_.code.size());
    for (std::uint64_t pc = 0; pc < program_.code.size(); ++pc) {
        const isa::Instruction &inst = program_.code[pc];
        const isa::OpInfo &info = inst.info();
        const ControlKind kind =
            controlKind(info.is_branch, info.is_jump, inst.op, inst.rd,
                        inst.rs1, link_reg_);

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
        f.kind = kind;
        fast_table_.push_back(f);

        DynInst d;
        d.pc = pc;
        d.op = inst.op;
        d.op_class = info.op_class;
        d.rd = inst.rd;
        d.rs1 = inst.rs1;
        d.rs2 = inst.rs2;
        d.writes_rd = info.writes_rd && inst.rd != isa::reg_zero;
        d.reads_rs1 = info.reads_rs1;
        d.reads_rs2 = info.reads_rs2;
        d.is_branch = info.is_branch;
        d.is_jump = info.is_jump;
        d.is_load = info.op_class == isa::OpClass::MemRead;
        d.is_store = info.op_class == isa::OpClass::MemWrite;
        decoded_.push_back(d);
    }
}

const DynInst *
FunctionalCore::decodedInsts()
{
    if (decoded_.size() != program_.code.size())
        buildTables();
    return decoded_.data();
}

} // namespace pgss::cpu
