#include "workload/kernels.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace pgss::workload
{

namespace
{

using isa::Opcode;
using R = std::uint8_t;

// Kernel-scratch register names (see regs:: convention).
constexpr R r_cnt = 2;   ///< loop counter
constexpr R r_base = 3;  ///< primary base/cursor
constexpr R r_base2 = 4; ///< secondary base
constexpr R r_t0 = 5;
constexpr R r_t1 = 6;
constexpr R r_t2 = 7;
constexpr R r_acc = 8;
constexpr R r_chain0 = 9;  ///< chains r9..r11 + r4..r8 reuse as needed
constexpr R r_const = 12;  ///< FP multiplier / integer constant
constexpr R r_const2 = 13;
constexpr R r_const3 = 14;

std::uint64_t
doubleBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** Emit the common "dec-and-loop-back, then return" tail. */
void
emitLoopTail(ProgramBuilder &b, std::uint32_t loop_top)
{
    b.emit(Opcode::Addi, r_cnt, r_cnt, 0, -1);
    const std::uint32_t br = b.emitBranch(Opcode::Bne, r_cnt, 0);
    b.patchTarget(br, loop_top);
    b.emit(Opcode::Jalr, 0, regs::link, 0, 0);
}

KernelCode
emitStream(ProgramBuilder &b, const KernelSpec &spec)
{
    const std::uint32_t stride = std::max<std::uint32_t>(
        1, spec.stride_words);
    const std::uint64_t iters =
        std::max<std::uint64_t>(8, spec.footprint_bytes / (8 * stride));
    const std::uint64_t base = b.allocData(iters * stride * 8, 64);

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_base, base);
    b.loadImm(r_cnt, iters);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Ld, r_t0, r_base, 0, 0);
    b.emit(Opcode::Addi, r_t0, r_t0, 0, 1);
    b.emit(Opcode::St, 0, r_base, r_t0, 0);
    b.emit(Opcode::Addi, r_base, r_base, 0,
           static_cast<std::int64_t>(stride * 8));
    emitLoopTail(b, loop);
    kc.ops_per_call = 6.0 * static_cast<double>(iters) + 3.0;
    return kc;
}

KernelCode
emitChase(ProgramBuilder &b, const KernelSpec &spec)
{
    const std::uint64_t n =
        std::max<std::uint64_t>(16, spec.footprint_bytes / 8);
    const std::uint64_t base = b.allocData(n * 8, 64);
    const std::uint64_t cursor = b.allocData(8, 8);

    // Host-side: one random Hamiltonian cycle through the n slots.
    util::Rng rng(spec.seed * 0x51ed2701u + 17);
    std::vector<std::uint64_t> perm(n);
    for (std::uint64_t i = 0; i < n; ++i)
        perm[i] = i;
    rng.shuffle(perm);
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t slot = perm[k];
        const std::uint64_t next = perm[(k + 1) % n];
        b.initWord(base + slot * 8, base + next * 8);
    }
    b.initWord(cursor, base + perm[0] * 8);

    const std::uint32_t filler = std::min<std::uint32_t>(4, spec.ilp);

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_base2, cursor);
    b.emit(Opcode::Ld, r_base, r_base2, 0, 0);
    b.loadImm(r_cnt, spec.inner_iters);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Ld, r_base, r_base, 0, 0);
    for (std::uint32_t f = 0; f < filler; ++f)
        b.emit(Opcode::Addi, static_cast<R>(r_t0 + f),
               static_cast<R>(r_t0 + f), 0, 1);
    b.emit(Opcode::Addi, r_cnt, r_cnt, 0, -1);
    const std::uint32_t br = b.emitBranch(Opcode::Bne, r_cnt, 0);
    b.patchTarget(br, loop);
    // The loop-back bne falls through on the final trip; the cursor
    // is saved before returning so the walk resumes where it stopped
    // (ChaseKernel.CursorSaveExecutes pins this).
    b.emit(Opcode::St, 0, r_base2, r_base, 0);
    b.emit(Opcode::Jalr, 0, regs::link, 0, 0);
    kc.ops_per_call =
        (3.0 + filler) * static_cast<double>(spec.inner_iters) + 5.0;
    return kc;
}

KernelCode
emitCompute(ProgramBuilder &b, const KernelSpec &spec)
{
    const std::uint32_t ilp =
        std::clamp<std::uint32_t>(spec.ilp, 1, 8);

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_const, doubleBits(1.0));
    for (std::uint32_t c = 0; c < ilp; ++c)
        b.loadImm(static_cast<R>(r_base2 + c),
                  doubleBits(1.0 + 0.125 * (c + 1)));
    b.loadImm(r_cnt, spec.inner_iters);
    const std::uint32_t loop = b.here();
    for (std::uint32_t c = 0; c < ilp; ++c)
        b.emit(Opcode::Fmul, static_cast<R>(r_base2 + c),
               static_cast<R>(r_base2 + c), r_const, 0);
    emitLoopTail(b, loop);
    kc.ops_per_call = (static_cast<double>(ilp) + 2.0) *
                          static_cast<double>(spec.inner_iters) +
                      ilp + 3.0;
    return kc;
}

KernelCode
emitSerialFp(ProgramBuilder &b, const KernelSpec &spec)
{
    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_const, doubleBits(1.0));
    b.loadImm(r_acc, doubleBits(1.5));
    b.loadImm(r_cnt, spec.inner_iters);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Fdiv, r_acc, r_acc, r_const, 0);
    emitLoopTail(b, loop);
    kc.ops_per_call = 3.0 * static_cast<double>(spec.inner_iters) + 4.0;
    return kc;
}

KernelCode
emitBranchy(ProgramBuilder &b, const KernelSpec &spec)
{
    const std::uint64_t n =
        std::max<std::uint64_t>(64, spec.footprint_bytes / 8);
    const std::uint64_t base = b.allocData(n * 8, 64);

    // Host-side: random words whose low bit drives the conditional
    // branch; bit0 == 0 (branch taken, work skipped) with probability
    // taken_bias.
    util::Rng rng(spec.seed * 0x9c1fab3du + 5);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t word = rng.next() | 1ull;
        if (rng.nextBool(spec.taken_bias))
            word &= ~1ull;
        b.initWord(base + i * 8, word);
    }

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_base, base);
    b.loadImm(r_cnt, n);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Ld, r_t0, r_base, 0, 0);
    b.emit(Opcode::Andi, r_t1, r_t0, 0, 1);
    const std::uint32_t skip_br = b.emitBranch(Opcode::Beq, r_t1, 0);
    b.emit(Opcode::Add, r_acc, r_acc, r_t0, 0);
    b.emit(Opcode::Xor, r_t2, r_t2, r_t0, 0);
    b.patchTarget(skip_br, b.here());
    b.emit(Opcode::Addi, r_base, r_base, 0, 8);
    emitLoopTail(b, loop);
    kc.ops_per_call =
        (6.0 + 2.0 * (1.0 - spec.taken_bias)) * static_cast<double>(n) +
        3.0;
    return kc;
}

KernelCode
emitStencil(ProgramBuilder &b, const KernelSpec &spec)
{
    const std::uint64_t n =
        std::max<std::uint64_t>(16, spec.footprint_bytes / 16);
    const std::uint64_t in = b.allocData(n * 8, 64);
    const std::uint64_t out = b.allocData(n * 8, 64);

    util::Rng rng(spec.seed * 0x2545f491u + 3);
    for (std::uint64_t i = 0; i < n; ++i)
        b.initWord(in + i * 8, doubleBits(rng.nextDouble()));

    const std::uint64_t iters = n - 2;

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_base, in);
    b.loadImm(r_base2, out);
    b.loadImm(r_const, doubleBits(1.0 / 3.0));
    b.loadImm(r_cnt, iters);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Ld, r_t0, r_base, 0, 0);
    b.emit(Opcode::Ld, r_t1, r_base, 0, 8);
    b.emit(Opcode::Ld, r_t2, r_base, 0, 16);
    b.emit(Opcode::Fadd, r_acc, r_t0, r_t1, 0);
    b.emit(Opcode::Fadd, r_acc, r_acc, r_t2, 0);
    b.emit(Opcode::Fmul, r_acc, r_acc, r_const, 0);
    b.emit(Opcode::St, 0, r_base2, r_acc, 0);
    b.emit(Opcode::Addi, r_base, r_base, 0, 8);
    b.emit(Opcode::Addi, r_base2, r_base2, 0, 8);
    emitLoopTail(b, loop);
    kc.ops_per_call = 11.0 * static_cast<double>(iters) + 5.0;
    return kc;
}

KernelCode
emitHashScatter(ProgramBuilder &b, const KernelSpec &spec)
{
    std::uint64_t n = std::bit_floor(
        std::max<std::uint64_t>(64, spec.footprint_bytes / 8));
    const std::uint64_t base = b.allocData(n * 8, 64);

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_base, base);
    b.loadImm(r_t0, spec.seed | 1);
    b.loadImm(r_const, 0x9e3779b97f4a7c15ull);
    b.loadImm(r_const2, 17); // shift distance
    b.loadImm(r_acc, 0xabcdef);
    b.loadImm(r_cnt, spec.inner_iters);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Mul, r_t0, r_t0, r_const, 0);
    b.emit(Opcode::Srl, r_t1, r_t0, r_const2, 0);
    b.emit(Opcode::Andi, r_t1, r_t1, 0,
           static_cast<std::int64_t>((n - 1) * 8));
    b.emit(Opcode::Add, r_t2, r_base, r_t1, 0);
    b.emit(Opcode::St, 0, r_t2, r_acc, 0);
    emitLoopTail(b, loop);
    kc.ops_per_call = 7.0 * static_cast<double>(spec.inner_iters) + 7.0;
    return kc;
}

KernelCode
emitReduce(ProgramBuilder &b, const KernelSpec &spec)
{
    const std::uint64_t n =
        std::max<std::uint64_t>(16, spec.footprint_bytes / 8);
    const std::uint64_t base = b.allocData(n * 8, 64);

    util::Rng rng(spec.seed * 0x853c49e6u + 11);
    for (std::uint64_t i = 0; i < n; ++i)
        b.initWord(base + i * 8, doubleBits(rng.nextDouble()));

    KernelCode kc;
    kc.entry = b.here();
    b.loadImm(r_base, base);
    b.loadImm(r_acc, doubleBits(0.0));
    b.loadImm(r_cnt, n);
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Ld, r_t0, r_base, 0, 0);
    b.emit(Opcode::Fadd, r_acc, r_acc, r_t0, 0);
    b.emit(Opcode::Addi, r_base, r_base, 0, 8);
    emitLoopTail(b, loop);
    kc.ops_per_call = 5.0 * static_cast<double>(n) + 4.0;
    return kc;
}

} // anonymous namespace

KernelCode
emitKernel(ProgramBuilder &b, const KernelSpec &spec)
{
    switch (spec.kind) {
      case KernelKind::Stream:
        return emitStream(b, spec);
      case KernelKind::Chase:
        return emitChase(b, spec);
      case KernelKind::Compute:
        return emitCompute(b, spec);
      case KernelKind::SerialFp:
        return emitSerialFp(b, spec);
      case KernelKind::Branchy:
        return emitBranchy(b, spec);
      case KernelKind::Stencil:
        return emitStencil(b, spec);
      case KernelKind::HashScatter:
        return emitHashScatter(b, spec);
      case KernelKind::Reduce:
        return emitReduce(b, spec);
    }
    util::panic("unknown kernel kind");
}

std::string
kindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Stream:
        return "stream";
      case KernelKind::Chase:
        return "chase";
      case KernelKind::Compute:
        return "compute";
      case KernelKind::SerialFp:
        return "serial_fp";
      case KernelKind::Branchy:
        return "branchy";
      case KernelKind::Stencil:
        return "stencil";
      case KernelKind::HashScatter:
        return "hash_scatter";
      case KernelKind::Reduce:
        return "reduce";
    }
    return "unknown";
}

} // namespace pgss::workload
