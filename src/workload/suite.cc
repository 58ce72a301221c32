#include "workload/suite.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/logging.hh"

namespace pgss::workload
{

namespace
{

constexpr double M = 1e6;
constexpr double K = 1e3;
constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

/** Shorthand for a kernel spec. */
KernelSpec
kspec(KernelKind kind, std::uint64_t footprint, std::uint32_t iters,
      std::uint32_t ilp, double bias, std::uint64_t seed,
      std::uint32_t stride = 1)
{
    KernelSpec s;
    s.kind = kind;
    s.footprint_bytes = footprint;
    s.inner_iters = iters;
    s.ilp = ilp;
    s.taken_bias = bias;
    s.seed = seed;
    s.stride_words = stride;
    return s;
}

// ------------------------------------------------------------------ specs

WorkloadSpec
gzipSpec()
{
    WorkloadSpec w;
    w.name = "164.gzip";
    w.instances = {
        {"scan", kspec(KernelKind::Branchy, 256 * KiB, 0, 0, 0.70, 11)},
        {"match", kspec(KernelKind::Chase, 96 * KiB, 20000, 2, 0, 12)},
        {"emit", kspec(KernelKind::Stream, 128 * KiB, 0, 0, 0, 13)},
        {"huff", kspec(KernelKind::Compute, 0, 30000, 3, 0, 14)},
        {"scan_s", kspec(KernelKind::Branchy, 64 * KiB, 0, 0, 0.70, 15)},
        {"emit_s", kspec(KernelKind::Stream, 48 * KiB, 0, 0, 0, 16)},
    };
    // Compress / fine-grained mix / encode, alternating. The micro
    // block gives gzip the wild 100k-granularity IPC variation of
    // Figure 2 that averages out at coarse sampling.
    const BlockSpec compress{{{"scan", 2.0 * M}, {"match", 1.5 * M}}, 8};
    const BlockSpec micro{{{"scan_s", 60 * K}, {"emit_s", 40 * K}}, 140};
    const BlockSpec encode{{{"emit", 2.0 * M}, {"huff", 1.5 * M}}, 6};
    for (int i = 0; i < 7; ++i) {
        w.blocks.push_back(compress);
        w.blocks.push_back(micro);
        w.blocks.push_back(encode);
    }
    return w;
}

WorkloadSpec
mesaSpec()
{
    WorkloadSpec w;
    w.name = "177.mesa";
    w.instances = {
        {"tri", kspec(KernelKind::Compute, 0, 60000, 8, 0, 21)},
        {"tex", kspec(KernelKind::Stream, 192 * KiB, 0, 0, 0, 22)},
        {"clip", kspec(KernelKind::Branchy, 64 * KiB, 0, 0, 0.85, 23)},
    };
    w.blocks = {
        {{{"tri", 20.0 * M}, {"tex", 8.0 * M}, {"clip", 7.0 * M}}, 10},
    };
    return w;
}

WorkloadSpec
artSpec()
{
    WorkloadSpec w;
    w.name = "179.art";
    w.instances = {
        {"f1", kspec(KernelKind::Chase, 768 * KiB, 12665, 0, 0, 31)},
        {"f2", kspec(KernelKind::Compute, 0, 3832, 4, 0, 32)},
        {"scan", kspec(KernelKind::Stream, 2 * MiB, 0, 0, 0, 33)},
        {"train", kspec(KernelKind::Reduce, 1 * MiB, 0, 0, 0, 34)},
    };
    // ~61k-op micro-phases (38k chase + 23k compute), incommensurate
    // with both the 100k and 1M BBV periods: fine periods see
    // unstable micro-phase mixtures ("many periods consist of two or
    // three unique behaviors in different amounts"), which PGSS must
    // pay for with far more samples; 10M periods average the
    // behaviour into surrounding phases and lose accuracy.
    const BlockSpec osc{{{"f1", 38000.0}, {"f2", 22999.0}}, 2600};
    w.blocks = {
        osc,
        {{{"scan", 20.0 * M}}, 1},
        osc,
        {{{"train", 15.0 * M}}, 1},
        {{{"scan", 10.0 * M}}, 1},
    };
    return w;
}

WorkloadSpec
mcfSpec()
{
    WorkloadSpec w;
    w.name = "181.mcf";
    w.instances = {
        {"arcs", kspec(KernelKind::Chase, 8 * MiB, 6500, 1, 0, 41)},
        {"nodes", kspec(KernelKind::HashScatter, 8 * MiB, 3715, 0, 0,
                        42)},
        {"price", kspec(KernelKind::Branchy, 128 * KiB, 0, 0, 0.80, 43)},
    };
    // ~52k-op micro-phases, near-locked against the 100k period's
    // sample positions (see the art comment above).
    const BlockSpec osc{{{"arcs", 26 * K}, {"nodes", 26 * K}}, 1600};
    w.blocks = {
        osc,
        {{{"price", 10.0 * M}, {"arcs", 5.0 * M}}, 5},
        osc,
        {{{"price", 10.0 * M}, {"arcs", 5.0 * M}}, 5},
    };
    return w;
}

WorkloadSpec
equakeSpec()
{
    WorkloadSpec w;
    w.name = "183.equake";
    w.instances = {
        {"stencil", kspec(KernelKind::Stencil, 2 * MiB, 0, 0, 0, 51)},
        {"smvp", kspec(KernelKind::Reduce, 512 * KiB, 0, 0, 0, 52)},
        {"init", kspec(KernelKind::Stream, 4 * MiB, 0, 0, 0, 53)},
    };
    w.blocks = {
        {{{"init", 15.0 * M}}, 1},
        {{{"stencil", 35.0 * M}, {"smvp", 10.0 * M}}, 8},
        {{{"init", 15.0 * M}}, 1},
    };
    return w;
}

WorkloadSpec
ammpSpec()
{
    WorkloadSpec w;
    w.name = "188.ammp";
    w.instances = {
        {"force", kspec(KernelKind::Compute, 0, 40000, 6, 0, 61)},
        {"nb", kspec(KernelKind::Chase, 512 * KiB, 30000, 4, 0, 62)},
        {"upd", kspec(KernelKind::Stencil, 256 * KiB, 0, 0, 0, 63)},
    };
    w.blocks = {
        {{{"force", 18.0 * M}, {"nb", 12.0 * M}, {"upd", 8.0 * M}}, 10},
    };
    return w;
}

WorkloadSpec
parserSpec()
{
    WorkloadSpec w;
    w.name = "197.parser";
    w.instances = {
        {"dict", kspec(KernelKind::Branchy, 512 * KiB, 0, 0, 0.60, 71)},
        {"link", kspec(KernelKind::Chase, 256 * KiB, 25000, 2, 0, 72)},
        {"str", kspec(KernelKind::Stream, 64 * KiB, 0, 0, 0, 73)},
    };
    w.blocks = {
        {{{"dict", 2.5 * M}, {"link", 1.5 * M}, {"str", 2.0 * M}}, 60},
    };
    return w;
}

WorkloadSpec
perlbmkSpec()
{
    WorkloadSpec w;
    w.name = "253.perlbmk";
    w.instances = {
        {"interp",
         kspec(KernelKind::Branchy, 256 * KiB, 0, 0, 0.55, 81)},
        {"hash",
         kspec(KernelKind::HashScatter, 512 * KiB, 20000, 0, 0, 82)},
        {"re", kspec(KernelKind::Compute, 0, 30000, 3, 0, 83)},
        {"gc", kspec(KernelKind::Reduce, 768 * KiB, 0, 0, 0, 84)},
    };
    w.blocks = {
        {{{"interp", 6.0 * M},
          {"hash", 3.0 * M},
          {"re", 4.0 * M},
          {"gc", 2.0 * M}},
         24},
    };
    return w;
}

WorkloadSpec
bzip2Spec()
{
    WorkloadSpec w;
    w.name = "256.bzip2";
    w.instances = {
        {"sort",
         kspec(KernelKind::HashScatter, 4 * MiB, 15000, 0, 0, 91)},
        {"mtf", kspec(KernelKind::Branchy, 1 * MiB, 0, 0, 0.65, 92)},
        {"huff", kspec(KernelKind::Compute, 0, 30000, 3, 0, 93)},
        {"io", kspec(KernelKind::Stream, 256 * KiB, 0, 0, 0, 94)},
    };
    const BlockSpec block_sort{{{"sort", 12.0 * M}, {"mtf", 10.0 * M}},
                               1};
    const BlockSpec block_code{{{"huff", 8.0 * M}, {"io", 6.0 * M}}, 1};
    for (int i = 0; i < 10; ++i) {
        w.blocks.push_back(block_sort);
        w.blocks.push_back(block_code);
    }
    return w;
}

WorkloadSpec
twolfSpec()
{
    WorkloadSpec w;
    w.name = "300.twolf";
    w.instances = {
        {"place", kspec(KernelKind::Branchy, 192 * KiB, 0, 0, 0.70,
                        101)},
        {"cost", kspec(KernelKind::Reduce, 128 * KiB, 0, 0, 0, 102)},
        {"spike_lo", kspec(KernelKind::SerialFp, 0, 8000, 0, 0, 103)},
        {"spike_hi", kspec(KernelKind::Compute, 0, 12000, 8, 0, 104)},
    };
    // Weak coarse phase behaviour (place/cost have similar IPC) with
    // periodic short abnormal excursions at fine granularity — the
    // paper's description of twolf in Section 4.
    const BlockSpec main_mix{{{"place", 1.8 * M}, {"cost", 1.2 * M}},
                             12};
    const BlockSpec spikes{{{"spike_lo", 24 * K}, {"spike_hi", 120 * K}},
                           1};
    for (int i = 0; i < 9; ++i) {
        w.blocks.push_back(main_mix);
        w.blocks.push_back(spikes);
    }
    return w;
}

WorkloadSpec
wupwiseSpec()
{
    WorkloadSpec w;
    w.name = "168.wupwise";
    w.instances = {
        {"zgemm", kspec(KernelKind::Compute, 0, 50000, 8, 0, 111)},
        {"zdotc", kspec(KernelKind::Reduce, 1 * MiB, 0, 0, 0, 112)},
        {"gather", kspec(KernelKind::Stream, 4 * MiB, 0, 0, 0, 113)},
    };
    const BlockSpec b1{{{"zgemm", 20.0 * M}}, 1};
    const BlockSpec b2{{{"zdotc", 15.0 * M}}, 1};
    const BlockSpec b3{{{"gather", 10.0 * M}}, 1};
    for (int i = 0; i < 9; ++i) {
        w.blocks.push_back(b1);
        w.blocks.push_back(b2);
        w.blocks.push_back(b3);
    }
    return w;
}

/**
 * Derive an input-set variant: same code structure (kernel kinds and
 * schedule shape), different data seeds, working-set sizes, loop
 * counts, and phase proportions — the kind of drift SPEC reference
 * inputs exhibit between each other.
 */
void
applyInput(WorkloadSpec &spec, std::uint32_t input)
{
    util::panicIf(input >= num_inputs, "unknown workload input");
    if (input == 0)
        return;
    spec.name += ".in" + std::to_string(input);

    const double footprint_scale = input == 1 ? 1.5 : 0.75;
    const double iter_scale = input == 1 ? 0.9 : 1.2;
    const double bias_shift = input == 1 ? 0.05 : -0.05;
    const std::uint64_t seed_shift = 1000ull * input;

    for (auto &[name, k] : spec.instances) {
        (void)name;
        k.seed += seed_shift;
        if (k.footprint_bytes > 0) {
            k.footprint_bytes = static_cast<std::uint64_t>(
                k.footprint_bytes * footprint_scale);
        }
        if (k.inner_iters > 0) {
            k.inner_iters = std::max<std::uint32_t>(
                16, static_cast<std::uint32_t>(k.inner_iters *
                                               iter_scale));
        }
        k.taken_bias =
            std::clamp(k.taken_bias + bias_shift, 0.05, 0.95);
    }

    // Shift phase proportions: grow the first step of every block,
    // shrink the last (different inputs spend time differently).
    for (BlockSpec &block : spec.blocks) {
        if (block.steps.size() < 2)
            continue;
        block.steps.front().ops *= input == 1 ? 1.3 : 0.8;
        block.steps.back().ops *= input == 1 ? 0.8 : 1.25;
    }
}

} // anonymous namespace

BuiltWorkload
buildProgram(const WorkloadSpec &spec, double scale)
{
    util::panicIf(!std::isfinite(scale) || scale <= 0.0,
                  "workload scale must be finite and positive");
    ProgramBuilder b(spec.name);

    // Emit every kernel instance once; remember entries and sizes.
    std::map<std::string, KernelCode> code;
    for (const auto &[name, kspec_] : spec.instances) {
        util::panicIf(code.contains(name),
                      "duplicate kernel instance name");
        code[name] = emitKernel(b, kspec_);
    }

    // Emit the schedule driver.
    const std::uint32_t entry = b.here();
    double total_ops = 0.0;

    for (const BlockSpec &block : spec.blocks) {
        util::panicIf(block.steps.empty(), "block with no steps");

        // Scale block repeats first; push any residual factor into
        // the per-step op budgets so tiny-step oscillation blocks
        // still shrink/grow correctly.
        std::uint32_t repeats = block.repeats;
        double residual = scale;
        if (repeats > 1) {
            const auto scaled = static_cast<std::uint32_t>(std::max(
                1.0, std::llround(repeats * scale) * 1.0));
            residual = scale * repeats / scaled;
            repeats = scaled;
        }

        b.loadImm(regs::drv0, repeats);
        const std::uint32_t block_top = b.here();
        double block_ops = 0.0;

        for (const StepSpec &step : block.steps) {
            const auto it = code.find(step.instance);
            util::panicIf(it == code.end(),
                          "step references unknown instance");
            const KernelCode &kc = it->second;
            const auto calls = static_cast<std::uint32_t>(std::max<
                std::int64_t>(
                1, std::llround(step.ops * residual / kc.ops_per_call)));

            b.loadImm(regs::drv1, calls);
            const std::uint32_t step_top = b.here();
            b.emit(isa::Opcode::Jal, regs::link, 0, 0,
                   static_cast<std::int64_t>(kc.entry));
            b.emit(isa::Opcode::Addi, regs::drv1, regs::drv1, 0, -1);
            const std::uint32_t br =
                b.emitBranch(isa::Opcode::Bne, regs::drv1, 0);
            b.patchTarget(br, step_top);
            block_ops += calls * (kc.ops_per_call + 3.0) + 1.0;
        }

        b.emit(isa::Opcode::Addi, regs::drv0, regs::drv0, 0, -1);
        const std::uint32_t br =
            b.emitBranch(isa::Opcode::Bne, regs::drv0, 0);
        b.patchTarget(br, block_top);
        total_ops += repeats * block_ops + 1.0;
    }

    b.emit(isa::Opcode::Halt, 0, 0, 0, 0);

    BuiltWorkload built;
    built.program = b.finalize(entry);
    built.estimated_ops = total_ops;
    return built;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "164.gzip",    "177.mesa",  "179.art",    "181.mcf",
        "183.equake",  "188.ammp",  "197.parser", "253.perlbmk",
        "256.bzip2",   "300.twolf",
    };
    return names;
}

WorkloadSpec
workloadSpec(const std::string &name, std::uint32_t input)
{
    WorkloadSpec spec = [&name]() -> WorkloadSpec {
        if (name == "164.gzip" || name == "gzip")
            return gzipSpec();
        if (name == "177.mesa" || name == "mesa")
            return mesaSpec();
        if (name == "179.art" || name == "art")
            return artSpec();
        if (name == "181.mcf" || name == "mcf")
            return mcfSpec();
        if (name == "183.equake" || name == "equake")
            return equakeSpec();
        if (name == "188.ammp" || name == "ammp")
            return ammpSpec();
        if (name == "197.parser" || name == "parser")
            return parserSpec();
        if (name == "253.perlbmk" || name == "perlbmk")
            return perlbmkSpec();
        if (name == "256.bzip2" || name == "bzip2")
            return bzip2Spec();
        if (name == "300.twolf" || name == "twolf")
            return twolfSpec();
        if (name == "168.wupwise" || name == "wupwise")
            return wupwiseSpec();
        util::fatal("unknown workload '%s'", name.c_str());
    }();
    applyInput(spec, input);
    return spec;
}

BuiltWorkload
buildWorkload(const std::string &name, double scale,
              std::uint32_t input)
{
    return buildProgram(workloadSpec(name, input), scale);
}

} // namespace pgss::workload
