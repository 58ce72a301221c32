/**
 * @file
 * Shared fixtures for the test suite: tiny hand-built programs, a
 * small two-phase workload with known structure, and per-test
 * scratch paths.
 */

#ifndef PGSS_TESTS_HELPERS_HH
#define PGSS_TESTS_HELPERS_HH

#include <cstdint>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "workload/kernels.hh"
#include "workload/program_builder.hh"
#include "workload/suite.hh"

namespace pgss::test
{

/**
 * A scratch path under testing::TempDir() that no other test process
 * shares: @p tag, the pid, and the running test's suite and name.
 * ctest runs every gtest case as its own process, in parallel, so a
 * fixed path would be removed by one test while another uses it. The
 * path is not created; use it as a directory or a file name.
 */
inline std::string
uniqueTempDir(const std::string &tag)
{
    std::string leaf = tag + "_" + std::to_string(::getpid());
    if (const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info())
        leaf += std::string("_") + info->test_suite_name() + "_" +
                info->name();
    return ::testing::TempDir() + leaf; // TempDir() ends in '/'
}

/**
 * A program that sums the integers 1..n into r3 and halts.
 * Dynamic length: 2 + 3n + 1 instructions.
 */
inline isa::Program
sumProgram(std::uint32_t n)
{
    using isa::Opcode;
    workload::ProgramBuilder b("sum");
    b.emit(Opcode::Addi, 2, 0, 0, n);  // r2 = n
    b.emit(Opcode::Addi, 3, 0, 0, 0);  // r3 = 0
    const std::uint32_t loop = b.here();
    b.emit(Opcode::Add, 3, 3, 2, 0);   // r3 += r2
    b.emit(Opcode::Addi, 2, 2, 0, -1); // --r2
    const std::uint32_t br = b.emitBranch(Opcode::Bne, 2, 0);
    b.patchTarget(br, loop);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    return b.finalize(0);
}

/**
 * A two-phase workload (clearly distinct code and IPC per phase) with
 * the phase pair repeated @p rounds times. Phase A is register-bound
 * FP compute (high IPC); phase B is a pointer chase (low IPC).
 * Roughly @p ops_per_phase dynamic ops per phase per round.
 */
inline workload::BuiltWorkload
twoPhaseWorkload(double ops_per_phase = 400'000.0,
                 std::uint32_t rounds = 4)
{
    workload::WorkloadSpec w;
    w.name = "two-phase";
    workload::KernelSpec compute;
    compute.kind = workload::KernelKind::Compute;
    compute.inner_iters = 4000;
    compute.ilp = 6;
    compute.seed = 3;
    workload::KernelSpec chase;
    chase.kind = workload::KernelKind::Chase;
    chase.footprint_bytes = 256 * 1024; // L2-resident, misses L1
    chase.inner_iters = 8000;
    chase.ilp = 0;
    chase.seed = 4;
    w.instances = {{"compute", compute}, {"chase", chase}};
    w.blocks = {{{{"compute", ops_per_phase}, {"chase", ops_per_phase}},
                 rounds}};
    return workload::buildProgram(w, 1.0);
}

/**
 * A workload that actually writes memory: a small streaming update
 * (8 KiB footprint, read-modify-write every word) alternating with a
 * pointer chase over a large read-only image. Stream phases dirty a
 * couple of 4 KiB pages per stride while most of the image stays
 * untouched — the shape delta checkpoints are designed for.
 */
inline workload::BuiltWorkload
storingWorkload(double ops_per_phase = 50'000.0,
                std::uint32_t rounds = 3)
{
    workload::WorkloadSpec w;
    w.name = "store-stream";
    workload::KernelSpec stream;
    stream.kind = workload::KernelKind::Stream;
    stream.footprint_bytes = 8 * 1024;
    stream.stride_words = 1;
    stream.seed = 5;
    workload::KernelSpec chase;
    chase.kind = workload::KernelKind::Chase;
    chase.footprint_bytes = 256 * 1024;
    chase.inner_iters = 4000;
    chase.ilp = 0;
    chase.seed = 6;
    w.instances = {{"stream", stream}, {"chase", chase}};
    w.blocks = {{{{"stream", ops_per_phase}, {"chase", ops_per_phase}},
                 rounds}};
    return workload::buildProgram(w, 1.0);
}

} // namespace pgss::test

#endif // PGSS_TESTS_HELPERS_HH
