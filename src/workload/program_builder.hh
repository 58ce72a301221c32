/**
 * @file
 * Code and data emission for synthetic programs. The builder appends
 * pre-decoded instructions, allocates and host-initialises data
 * memory, and patches forward branch targets. Kernels and
 * phase-script drivers are emitted through this interface; the result
 * is a self-contained isa::Program.
 */

#ifndef PGSS_WORKLOAD_PROGRAM_BUILDER_HH
#define PGSS_WORKLOAD_PROGRAM_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace pgss::workload
{

/**
 * Register-use convention for generated code (no stack, no spills):
 * r0 zero, r1 link register, r2-r15 kernel scratch (re-initialised at
 * every kernel entry), r16-r19 reserved for the phase-script driver
 * loops. Kernels must not touch the driver registers.
 */
namespace regs
{
constexpr std::uint8_t zero = 0;
constexpr std::uint8_t link = 1;
constexpr std::uint8_t k0 = 2;   ///< first kernel scratch register
constexpr std::uint8_t k_last = 15;
constexpr std::uint8_t drv0 = 16; ///< first driver register
constexpr std::uint8_t drv1 = 17;
} // namespace regs

/** Builds one isa::Program. */
class ProgramBuilder
{
  public:
    /** Start a program named @p name. */
    explicit ProgramBuilder(std::string name);

    /** Index the next emitted instruction will occupy. */
    std::uint32_t here() const;

    /** Append an instruction; returns its index. */
    std::uint32_t emit(isa::Opcode op, std::uint8_t rd,
                       std::uint8_t rs1, std::uint8_t rs2,
                       std::int64_t imm = 0);

    /** Append a conditional branch whose target is patched later. */
    std::uint32_t emitBranch(isa::Opcode op, std::uint8_t rs1,
                             std::uint8_t rs2);

    /** Patch the control-transfer target of instruction @p index. */
    void patchTarget(std::uint32_t index, std::uint32_t target);

    /** Materialise a full 64-bit immediate into @p rd (one Lui). */
    std::uint32_t loadImm(std::uint8_t rd, std::uint64_t value);

    /**
     * Reserve @p bytes of data memory.
     * @param align alignment in bytes (power of two).
     * @return the base byte address of the allocation.
     */
    std::uint64_t allocData(std::uint64_t bytes, std::uint64_t align = 64);

    /** Host-initialise the 64-bit word at byte address @p addr. */
    void initWord(std::uint64_t addr, std::uint64_t value);

    /** Bytes of data memory allocated so far. */
    std::uint64_t dataBytes() const { return data_cursor_; }

    /**
     * Produce the finished program.
     * @param entry index of the first instruction to execute.
     */
    isa::Program finalize(std::uint64_t entry);

  private:
    std::string name_;
    std::vector<isa::Instruction> code_;
    std::vector<std::uint64_t> data_words_;
    std::uint64_t data_cursor_ = 0;
};

} // namespace pgss::workload

#endif // PGSS_WORKLOAD_PROGRAM_BUILDER_HH
