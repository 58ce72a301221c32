/**
 * @file
 * The functional simulator: interprets pre-decoded instructions and
 * maintains the architectural state (register file, PC, data memory).
 * This is the always-on layer; fast-forwarding runs it alone, detailed
 * modes feed its retired-instruction records into the timing model.
 *
 * Two execution paths share the architectural state:
 *
 *  - step(): execute one instruction and fill a DynInst record with
 *    everything the timing model, branch predictors, and cache warming
 *    consume. Used by the warm and detailed modes.
 *  - runFastWith(): batched execution over a flat pre-decoded table
 *    (operands, immediates, and per-op behaviour resolved once at
 *    table build). No DynInst is populated; the only side channel is
 *    a taken-branch callback that receives (taken-branch address,
 *    ops) pairs, which is all BBV tracking needs. This is the
 *    functional-fast-forward path (DESIGN.md section 9.1); runFast()
 *    is its no-BBV wrapper.
 */

#ifndef PGSS_CPU_FUNCTIONAL_CORE_HH
#define PGSS_CPU_FUNCTIONAL_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "isa/program.hh"
#include "mem/main_memory.hh"
#include "util/logging.hh"

namespace pgss::cpu
{

namespace detail
{

inline double
asDouble(std::uint64_t bits)
{
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

inline std::uint64_t
asBits(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/**
 * Signed 64-bit division with the RISC-V edge cases: divide by zero
 * yields all ones, and the one overflowing quotient (INT64_MIN / -1,
 * undefined behaviour in C++) yields the dividend.
 */
inline std::uint64_t
divSigned(std::uint64_t a, std::uint64_t b)
{
    if (b == 0)
        return ~0ull;
    const std::int64_t sa = static_cast<std::int64_t>(a);
    const std::int64_t sb = static_cast<std::int64_t>(b);
    if (sa == std::numeric_limits<std::int64_t>::min() && sb == -1)
        return a;
    return static_cast<std::uint64_t>(sa / sb);
}

} // namespace detail

/**
 * One pre-decoded fast-path operation. Destination registers are
 * remapped at table build: writes to r0 target a scratch slot past the
 * architectural file, so the dispatch loop needs no r0 check.
 */
struct FastOp
{
    std::int64_t imm;   ///< immediate / offset / target index
    isa::Opcode op;     ///< operation
    std::uint8_t rd;    ///< destination (r0 remapped to scratch)
    std::uint8_t rs1;   ///< first source
    std::uint8_t rs2;   ///< second source
};

/**
 * Executes one program against one memory image. The core never
 * allocates on the execution path; step() fills a caller-provided
 * DynInst record.
 */
class FunctionalCore
{
  public:
    /**
     * Bind to @p program and @p memory (both owned by the caller and
     * must outlive the core).
     */
    FunctionalCore(const isa::Program &program, mem::MainMemory &memory);

    /**
     * Execute the instruction at the current PC.
     * @param[out] rec retired-instruction record.
     * @return false once the program has executed Halt (the halting
     *         Halt itself returns true; subsequent calls return false
     *         without executing anything).
     */
    bool step(DynInst &rec);

    /**
     * Execute up to @p n instructions on the fast path (architectural
     * state only, no DynInst records, no taken-branch accounting).
     * Stops early at Halt.
     * @return instructions retired (0 when already halted).
     */
    std::uint64_t runFast(std::uint64_t n);

    /**
     * The fast-path loop itself, templated over the taken-branch
     * callback so the engine's BBV trackers get a fully inlined call
     * per taken branch. The pre-decoded table is built lazily on
     * first use. Defined at the bottom of this header.
     * @param ops_since_taken carried in/out across calls: instructions
     *        retired since the last taken control transfer.
     * @param on_taken invoked as on_taken(branch_addr, ops_since_last)
     *        for every taken transfer (the transfer itself included
     *        in ops_since_last).
     * @return instructions retired (0 when already halted).
     */
    template <typename OnTaken>
    std::uint64_t runFastWith(std::uint64_t n,
                              std::uint64_t &ops_since_taken,
                              OnTaken &&on_taken);

    /** True after Halt has retired. */
    bool halted() const { return halted_; }

    /** Current PC (instruction index). */
    std::uint64_t pc() const { return pc_; }

    /** Force the PC (used by checkpoint restore). */
    void setPc(std::uint64_t pc) { pc_ = pc; }

    /** Clear halt state (used by checkpoint restore). */
    void setHalted(bool halted) { halted_ = halted; }

    /** Read architectural register @p r. */
    std::uint64_t reg(int r) const { return regs_[r]; }

    /** Write architectural register @p r (writes to r0 are ignored). */
    void setReg(int r, std::uint64_t v);

    /** Whole register file, for checkpointing. */
    const std::array<std::uint64_t, isa::num_regs> &regs() const
    {
        return regs_;
    }

    /** Restore the register file. */
    void setRegs(const std::array<std::uint64_t, isa::num_regs> &r)
    {
        regs_ = r;
    }

    /** Total instructions retired since construction. */
    std::uint64_t retired() const { return retired_; }

    /** Restore the retired-instruction counter (checkpoint restore). */
    void setRetired(std::uint64_t retired) { retired_ = retired; }

    /** The bound program. */
    const isa::Program &program() const { return program_; }

    /** The bound memory. */
    mem::MainMemory &memory() { return memory_; }

  private:
    void buildFastTable();

    const isa::Program &program_;
    mem::MainMemory &memory_;
    std::array<std::uint64_t, isa::num_regs> regs_{};
    std::uint64_t pc_;
    std::uint64_t retired_ = 0;
    bool halted_ = false;

    std::vector<FastOp> fast_table_; ///< built lazily by runFastWith()
};

template <typename OnTaken>
std::uint64_t
FunctionalCore::runFastWith(std::uint64_t n,
                            std::uint64_t &ops_since_taken,
                            OnTaken &&on_taken)
{
    using isa::Opcode;

    if (halted_ || n == 0)
        return 0;
    if (fast_table_.size() != program_.code.size())
        buildFastTable();

    const FastOp *table = fast_table_.data();
    const std::uint64_t code_size = fast_table_.size();
    std::uint64_t *mem = memory_.rawWords();
    const std::uint64_t mem_words = memory_.words().size();
    std::uint8_t *page_dirty = memory_.rawPageDirty();

    // Local register file with the scratch slot for r0 writes; reads
    // of r0 still see slot 0, which no table entry writes.
    std::array<std::uint64_t, isa::num_regs + 1> regs;
    std::copy(regs_.begin(), regs_.end(), regs.begin());
    regs[isa::num_regs] = 0;

    std::uint64_t pc = pc_;
    std::uint64_t done = 0;
    std::uint64_t since = ops_since_taken;
    bool halted = false;

    while (done < n) {
        util::panicIf(pc >= code_size,
                      "PC ran off the end of the program");
        const FastOp &f = table[pc];
        const std::uint64_t a = regs[f.rs1];
        const std::uint64_t b = regs[f.rs2];
        std::uint64_t next = pc + 1;
        bool taken = false;

        switch (f.op) {
          case Opcode::Add:
            regs[f.rd] = a + b;
            break;
          case Opcode::Sub:
            regs[f.rd] = a - b;
            break;
          case Opcode::And:
            regs[f.rd] = a & b;
            break;
          case Opcode::Or:
            regs[f.rd] = a | b;
            break;
          case Opcode::Xor:
            regs[f.rd] = a ^ b;
            break;
          case Opcode::Sll:
            regs[f.rd] = a << (b & 63);
            break;
          case Opcode::Srl:
            regs[f.rd] = a >> (b & 63);
            break;
          case Opcode::Sra:
            regs[f.rd] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(a) >> (b & 63));
            break;
          case Opcode::Slt:
            regs[f.rd] = static_cast<std::int64_t>(a) <
                                 static_cast<std::int64_t>(b)
                             ? 1
                             : 0;
            break;
          case Opcode::Addi:
            regs[f.rd] = a + static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Andi:
            regs[f.rd] = a & static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Ori:
            regs[f.rd] = a | static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Xori:
            regs[f.rd] = a ^ static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Slti:
            regs[f.rd] =
                static_cast<std::int64_t>(a) < f.imm ? 1 : 0;
            break;
          case Opcode::Lui:
            regs[f.rd] = static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Mul:
            regs[f.rd] = a * b;
            break;
          case Opcode::Div:
            regs[f.rd] = detail::divSigned(a, b);
            break;
          case Opcode::Fadd:
            regs[f.rd] = detail::asBits(detail::asDouble(a) +
                                        detail::asDouble(b));
            break;
          case Opcode::Fmul:
            regs[f.rd] = detail::asBits(detail::asDouble(a) *
                                        detail::asDouble(b));
            break;
          case Opcode::Fdiv:
            regs[f.rd] = detail::asBits(detail::asDouble(a) /
                                        detail::asDouble(b));
            break;
          case Opcode::Ld: {
            const std::uint64_t addr =
                a + static_cast<std::uint64_t>(f.imm);
            util::panicIf((addr & 7) != 0, "unaligned memory read");
            const std::uint64_t w = addr >> 3;
            util::panicIf(w >= mem_words, "memory read out of range");
            regs[f.rd] = mem[w];
            break;
          }
          case Opcode::St: {
            const std::uint64_t addr =
                a + static_cast<std::uint64_t>(f.imm);
            util::panicIf((addr & 7) != 0, "unaligned memory write");
            const std::uint64_t w = addr >> 3;
            util::panicIf(w >= mem_words,
                          "memory write out of range");
            mem[w] = b;
            page_dirty[w >> mem::MainMemory::page_shift] = 1;
            break;
          }
          case Opcode::Beq:
            if (a == b) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            break;
          case Opcode::Bne:
            if (a != b) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            break;
          case Opcode::Blt:
            if (static_cast<std::int64_t>(a) <
                static_cast<std::int64_t>(b)) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            break;
          case Opcode::Bge:
            if (static_cast<std::int64_t>(a) >=
                static_cast<std::int64_t>(b)) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            break;
          case Opcode::Jal:
            regs[f.rd] = pc + 1;
            taken = true;
            next = static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Jalr:
            regs[f.rd] = pc + 1;
            taken = true;
            next = a + static_cast<std::uint64_t>(f.imm);
            break;
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            halted = true;
            break;
          default:
            util::panic("unhandled opcode in FunctionalCore::runFast");
        }

        ++done;
        ++since;
        if (taken) {
            on_taken(isa::instAddr(pc), since);
            since = 0;
        }
        pc = next;
        if (halted)
            break;
    }

    std::copy_n(regs.begin(), isa::num_regs, regs_.begin());
    pc_ = pc;
    retired_ += done;
    halted_ = halted;
    ops_since_taken = since;
    return done;
}

} // namespace pgss::cpu

#endif // PGSS_CPU_FUNCTIONAL_CORE_HH
