/** @file Tests for simulation checkpoints. */

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

using namespace pgss;
using sim::SimMode;

TEST(Checkpoint, RestoreReplaysIdenticalExecution)
{
    auto built = test::twoPhaseWorkload(100'000.0, 2);
    sim::SimulationEngine e(built.program);
    e.run(150'000, SimMode::FunctionalWarm);
    const sim::Checkpoint ckpt = e.checkpoint();
    EXPECT_EQ(ckpt.retired(), 150'000u);

    // Continue 50k ops and snapshot the whole state.
    e.run(50'000, SimMode::FunctionalWarm);
    const sim::Checkpoint continuous = e.checkpoint();
    EXPECT_FALSE(continuous == ckpt);

    // Rewind and replay: registers, pc, memory, the caches with their
    // LRU stamps, the predictor and the BTB all come out identical.
    e.restore(ckpt);
    EXPECT_EQ(e.totalOps(), 150'000u);
    EXPECT_TRUE(e.checkpoint() == ckpt);
    e.run(50'000, SimMode::FunctionalWarm);
    EXPECT_TRUE(e.checkpoint() == continuous);
}

TEST(Checkpoint, RestoreAfterStoresReplaysIdentically)
{
    // A streaming read-modify-write over an 8 KiB array alternating
    // with a pointer chase: every stream phase rewrites memory, so
    // each restore below must undo stores, not only registers.
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
    w.blocks = {{{{"stream", 50'000.0}, {"chase", 50'000.0}}, 3}};
    auto built = workload::buildProgram(w, 1.0);

    sim::SimulationEngine e(built.program);
    e.run(50'000, SimMode::FunctionalWarm);
    const sim::Checkpoint early = e.checkpoint();
    e.run(30'000, SimMode::FunctionalWarm);
    const sim::Checkpoint late = e.checkpoint();
    EXPECT_FALSE(late == early);
    e.run(20'000, SimMode::FunctionalWarm);
    const sim::Checkpoint end = e.checkpoint();

    // Rewind past both snapshots, replay up to the later one, then
    // restore that one and replay to the end of the continuous run.
    e.restore(early);
    e.run(30'000, SimMode::FunctionalWarm);
    EXPECT_TRUE(e.checkpoint() == late);
    e.restore(late);
    EXPECT_EQ(e.totalOps(), 80'000u);
    e.run(20'000, SimMode::FunctionalWarm);
    EXPECT_TRUE(e.checkpoint() == end);
}

TEST(Checkpoint, RestoredMeasurementMatchesContinuous)
{
    // Measure a detailed window at position P in one continuous run,
    // then via checkpoint/restore: the measured cycles must agree
    // (this is the property TurboSMARTS live-points rely on).
    auto built = test::twoPhaseWorkload(150'000.0, 2);

    sim::SimulationEngine cont(built.program);
    cont.run(200'000, SimMode::FunctionalWarm);
    cont.run(3'000, SimMode::DetailedWarm);
    const sim::RunResult direct =
        cont.run(1'000, SimMode::DetailedMeasure);

    sim::SimulationEngine ck(built.program);
    ck.run(200'000, SimMode::FunctionalWarm);
    const sim::Checkpoint ckpt = ck.checkpoint();
    ck.run(50'000, SimMode::FunctionalWarm); // wander off
    ck.restore(ckpt);
    ck.run(3'000, SimMode::DetailedWarm);
    const sim::RunResult replay =
        ck.run(1'000, SimMode::DetailedMeasure);

    EXPECT_EQ(replay.ops, direct.ops);
    EXPECT_EQ(replay.cycles, direct.cycles);
}

TEST(CheckpointDeathTest, RestoreAcrossProgramsPanics)
{
    auto a = test::twoPhaseWorkload(30'000.0, 1);
    auto b = test::sumProgram(100); // different data size
    sim::SimulationEngine ea(a.program);
    sim::SimulationEngine eb(b);
    ea.run(1'000, SimMode::FunctionalFast);
    const sim::Checkpoint ckpt = ea.checkpoint();
    EXPECT_DEATH(eb.restore(ckpt), "different program");
}
