/**
 * @file
 * The functional simulator: interprets pre-decoded instructions and
 * maintains the architectural state (register file, PC, data memory).
 * This is the always-on layer; every simulation mode runs it, and the
 * warming and timing layers observe what it retires.
 *
 * One loop, execute<Hooks>(), defines every opcode. It walks a flat
 * table pre-decoded once per program (operands, immediates, and the
 * branch unit's call/return class resolved at table build). Each
 * simulation mode passes a hook set that the loop calls, fully
 * inlined, at fixed points of every op: fetch (pc), memory access,
 * control transfer, retire and taken branch (BBV). step() runs the
 * loop for one op with RecordHooks and hands back the op's DynInst
 * record. DESIGN.md section 9.1 describes the hooks and the tests
 * that pin them.
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
 * One pre-decoded operation of the execute() loop. Destination
 * registers are remapped at table build: writes to r0 target a
 * scratch slot past the architectural file, so the dispatch loop
 * needs no r0 check. The branch unit's class of the op is resolved at
 * table build too, from the architectural rd/rs1.
 */
struct FastOp
{
    std::int64_t imm;   ///< immediate / offset / target index
    isa::Opcode op;     ///< operation
    std::uint8_t rd;    ///< destination (r0 remapped to scratch)
    std::uint8_t rs1;   ///< first source
    std::uint8_t rs2;   ///< second source
    ControlKind kind;   ///< branch-unit class (None for non-control)
};

/**
 * The execute() hook set that observes nothing. A mode's hook set
 * derives from it and hides the members it needs; the loop calls them
 * on the concrete type, so an unused hook compiles to nothing.
 */
struct NoHooks
{
    /** Before op @p pc executes. */
    void fetch(std::uint64_t /*pc*/) {}

    /** A load or store of the (checked) byte address @p addr. */
    void memory(std::uint64_t /*addr*/, bool /*is_store*/) {}

    /**
     * A branch or jump at @p pc resolved to @p target (the next pc;
     * pc+1 for a branch not taken).
     */
    void control(std::uint64_t /*pc*/, std::uint64_t /*target*/,
                 bool /*taken*/, ControlKind /*kind*/)
    {
    }

    /** Op @p pc retired; execution continues at @p next_pc. */
    void retire(std::uint64_t /*pc*/, std::uint64_t /*next_pc*/) {}

    /**
     * A taken control transfer at byte address @p branch_addr, with
     * the ops retired since the previous one (itself included).
     */
    void taken(std::uint64_t /*branch_addr*/, std::uint64_t /*ops*/) {}
};

/**
 * The execute() hook set that fills one DynInst per op from the per-pc
 * templates (FunctionalCore::decodedInsts()): fetch copies the
 * template, memory sets mem_addr, control sets taken and retire sets
 * next_pc. step() runs it for one op; the detailed modes extend its
 * retire to feed the timing model.
 */
struct RecordHooks : NoHooks
{
    const DynInst *decoded; ///< per-pc templates
    DynInst rec{};

    void fetch(std::uint64_t pc) { rec = decoded[pc]; }
    void memory(std::uint64_t addr, bool) { rec.mem_addr = addr; }

    void
    control(std::uint64_t /*pc*/, std::uint64_t /*target*/, bool taken,
            ControlKind /*kind*/)
    {
        rec.taken = taken;
    }

    void
    retire(std::uint64_t /*pc*/, std::uint64_t next_pc)
    {
        rec.next_pc = next_pc;
    }
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
     * must outlive the core). @p link_reg is the branch unit's link
     * register (timing::BranchUnitConfig::link_reg), which the
     * pre-decoded tables classify calls and returns by.
     */
    FunctionalCore(const isa::Program &program, mem::MainMemory &memory,
                   std::uint8_t link_reg = 1);

    /**
     * Execute the instruction at the current PC: one op of execute()
     * with RecordHooks.
     * @param[out] rec retired-instruction record.
     * @return false once the program has executed Halt (the halting
     *         Halt itself returns true; subsequent calls return false
     *         without executing anything).
     */
    bool step(DynInst &rec);

    /**
     * The execute loop: up to @p n instructions over the pre-decoded
     * table, calling @p hooks (see NoHooks) at every op. Per op the
     * order is fetch, then memory or control, then retire, then taken.
     * The tables are built lazily on first use. Defined at the bottom
     * of this header. Stops early at Halt.
     * @param ops_since_taken carried in/out across calls: instructions
     *        retired since the last taken control transfer.
     * @return instructions retired (0 when already halted).
     */
    template <typename Hooks>
    std::uint64_t execute(std::uint64_t n, std::uint64_t &ops_since_taken,
                          Hooks &hooks);

    /**
     * The per-pc DynInst templates: every field of the record that
     * follows from the instruction alone, with taken, next_pc and
     * mem_addr left at their defaults for RecordHooks to fill.
     */
    const DynInst *decodedInsts();

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
    void buildTables();

    const isa::Program &program_;
    mem::MainMemory &memory_;
    std::uint8_t link_reg_;
    std::array<std::uint64_t, isa::num_regs> regs_{};
    std::uint64_t pc_;
    std::uint64_t retired_ = 0;
    bool halted_ = false;

    // Built lazily, together, by buildTables().
    std::vector<FastOp> fast_table_;
    std::vector<DynInst> decoded_;
};

template <typename Hooks>
std::uint64_t
FunctionalCore::execute(std::uint64_t n, std::uint64_t &ops_since_taken,
                        Hooks &hooks)
{
    using isa::Opcode;

    if (halted_ || n == 0)
        return 0;
    if (fast_table_.size() != program_.code.size())
        buildTables();

    const FastOp *table = fast_table_.data();
    const std::uint64_t code_size = fast_table_.size();
    std::uint64_t *mem = memory_.rawWords();
    const std::uint64_t mem_words = memory_.words().size();

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
        hooks.fetch(pc);
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
            hooks.memory(addr, false);
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
            hooks.memory(addr, true);
            mem[w] = b;
            break;
          }
          case Opcode::Beq:
            if (a == b) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            hooks.control(pc, next, taken, f.kind);
            break;
          case Opcode::Bne:
            if (a != b) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            hooks.control(pc, next, taken, f.kind);
            break;
          case Opcode::Blt:
            if (static_cast<std::int64_t>(a) <
                static_cast<std::int64_t>(b)) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            hooks.control(pc, next, taken, f.kind);
            break;
          case Opcode::Bge:
            if (static_cast<std::int64_t>(a) >=
                static_cast<std::int64_t>(b)) {
                taken = true;
                next = static_cast<std::uint64_t>(f.imm);
            }
            hooks.control(pc, next, taken, f.kind);
            break;
          case Opcode::Jal:
            regs[f.rd] = pc + 1;
            taken = true;
            next = static_cast<std::uint64_t>(f.imm);
            hooks.control(pc, next, true, f.kind);
            break;
          case Opcode::Jalr:
            regs[f.rd] = pc + 1;
            taken = true;
            next = a + static_cast<std::uint64_t>(f.imm);
            hooks.control(pc, next, true, f.kind);
            break;
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            halted = true;
            break;
          default:
            util::panic("unhandled opcode in FunctionalCore::execute");
        }

        ++done;
        ++since;
        hooks.retire(pc, next);
        if (taken) {
            hooks.taken(isa::instAddr(pc), since);
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
