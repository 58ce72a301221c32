#include "workload/program_builder.hh"

#include "util/logging.hh"

namespace pgss::workload
{

ProgramBuilder::ProgramBuilder(std::string name) : name_(std::move(name))
{
}

std::uint32_t
ProgramBuilder::here() const
{
    return static_cast<std::uint32_t>(code_.size());
}

std::uint32_t
ProgramBuilder::emit(isa::Opcode op, std::uint8_t rd, std::uint8_t rs1,
                     std::uint8_t rs2, std::int64_t imm)
{
    const std::uint32_t index = here();
    code_.push_back({op, rd, rs1, rs2, imm});
    return index;
}

std::uint32_t
ProgramBuilder::emitBranch(isa::Opcode op, std::uint8_t rs1,
                           std::uint8_t rs2)
{
    util::panicIf(!isa::opInfo(op).is_branch,
                  "emitBranch requires a branch opcode");
    return emit(op, 0, rs1, rs2, 0);
}

void
ProgramBuilder::patchTarget(std::uint32_t index, std::uint32_t target)
{
    util::panicIf(index >= code_.size(),
                  "patchTarget index out of range");
    const isa::OpInfo &info = code_[index].info();
    util::panicIf(!info.is_branch && !info.is_jump,
                  "patchTarget on a non-control instruction");
    code_[index].imm = target;
}

std::uint32_t
ProgramBuilder::loadImm(std::uint8_t rd, std::uint64_t value)
{
    return emit(isa::Opcode::Lui, rd, 0, 0,
                static_cast<std::int64_t>(value));
}

std::uint64_t
ProgramBuilder::allocData(std::uint64_t bytes, std::uint64_t align)
{
    util::panicIf(align == 0 || (align & (align - 1)) != 0,
                  "allocData alignment must be a power of two");
    data_cursor_ = (data_cursor_ + align - 1) & ~(align - 1);
    const std::uint64_t base = data_cursor_;
    data_cursor_ += bytes;
    const std::uint64_t words = (data_cursor_ + 7) / 8;
    if (words > data_words_.size())
        data_words_.resize(words, 0);
    return base;
}

void
ProgramBuilder::initWord(std::uint64_t addr, std::uint64_t value)
{
    util::panicIf((addr & 7) != 0, "initWord address must be aligned");
    const std::uint64_t w = addr >> 3;
    util::panicIf(w >= data_words_.size(),
                  "initWord outside allocated data");
    data_words_[w] = value;
}

isa::Program
ProgramBuilder::finalize(std::uint64_t entry)
{
    util::panicIf(entry >= code_.size(), "program entry out of range");
    isa::Program prog;
    prog.name = name_;
    prog.code = std::move(code_);
    prog.data_bytes = data_words_.size() * 8;
    prog.data_words = std::move(data_words_);
    prog.entry = entry;
    return prog;
}

} // namespace pgss::workload
