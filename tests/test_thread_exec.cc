/**
 * @file
 * Tests for the hardware-thread execution engine: exact loop timing,
 * step sequencing, rdtsc marks, chunk records, TSC waits, idle steps,
 * stall injection.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace ich
{
namespace
{

using test::kernelPicos;
using test::quietChip;

TEST(ThreadExec, LoopTakesExactUnthrottledTime)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    // 128b-heavy: a PHI-free-of-AVX-gate class, so no wake-up stall
    // blurs the analytic timing.
    p.loop(InstClass::k128Heavy, 100, 100); // 10100 cycles @1GHz
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    ASSERT_EQ(thr.records().size(), 2u);
    Time dur = thr.records()[1].time - thr.records()[0].time;
    Time expect = kernelPicos(makeKernel(InstClass::k128Heavy, 100, 100),
                              1.0);
    EXPECT_NEAR(static_cast<double>(dur), static_cast<double>(expect),
                2000.0); // within 2 ns of analytic
}

TEST(ThreadExec, ScalarLoopRunsAtIpc2)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.loop(InstClass::kScalar64, 100, 100); // 51 cyc/iter
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    Time dur = thr.records()[1].time - thr.records()[0].time;
    EXPECT_NEAR(toMicroseconds(dur), 5.1, 0.01);
}

TEST(ThreadExec, StepsExecuteInOrder)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    int called = 0;
    Program p;
    p.mark(0);
    p.loop(InstClass::kScalar64, 10, 10);
    p.call([&] { called = 1; });
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_EQ(called, 1);
    EXPECT_TRUE(thr.done());
    ASSERT_EQ(thr.records().size(), 2u);
    EXPECT_LT(thr.records()[0].time, thr.records()[1].time);
}

TEST(ThreadExec, WaitUntilTscResumesOnTime)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Cycles target = static_cast<Cycles>(100.0 * chip.config().tscGhz *
                                        1e3); // 100 us
    Program p;
    p.waitUntilTsc(target);
    p.mark(0);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    ASSERT_EQ(thr.records().size(), 1u);
    EXPECT_NEAR(toMicroseconds(thr.records()[0].time), 100.0, 0.1);
    EXPECT_GE(chip.tscAt(thr.records()[0].time), target);
}

TEST(ThreadExec, IdleStepLastsExactly)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.idle(fromMicroseconds(42));
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    Time dur = thr.records()[1].time - thr.records()[0].time;
    EXPECT_NEAR(toMicroseconds(dur), 42.0, 0.01);
}

TEST(ThreadExec, ChunkRecordsEvenlySpaced)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loopChunked(InstClass::kScalar64, 1000, 100, /*tag=*/5, 20);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    // 1000/100 = 10 records; each chunk = 100 * 11 cycles = 1.1 us @1GHz.
    ASSERT_EQ(thr.records().size(), 10u);
    for (std::size_t i = 1; i < thr.records().size(); ++i) {
        Time gap = thr.records()[i].time - thr.records()[i - 1].time;
        EXPECT_NEAR(toMicroseconds(gap), 1.1, 0.02);
        EXPECT_EQ(thr.records()[i].tag, 5);
    }
    EXPECT_EQ(thr.records().back().iterationsDone, 1000u);
}

TEST(ThreadExec, StallDelaysProgress)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.loop(InstClass::kScalar64, 1000, 100); // 51 us unthrottled
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    // Inject a 10 us stall mid-loop.
    sim.eq().schedule(fromMicroseconds(20), [&] {
        thr.stallFor(fromMicroseconds(10));
    });
    sim.run();
    Time dur = thr.records()[1].time - thr.records()[0].time;
    EXPECT_NEAR(toMicroseconds(dur), 61.0, 0.1);
}

TEST(ThreadExec, OverlappingStallsExtendNotAdd)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.loop(InstClass::kScalar64, 1000, 100);
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.eq().schedule(fromMicroseconds(20), [&] {
        thr.stallFor(fromMicroseconds(10)); // until 30us
        thr.stallFor(fromMicroseconds(4));  // until 24us — subsumed
    });
    sim.run();
    Time dur = thr.records()[1].time - thr.records()[0].time;
    EXPECT_NEAR(toMicroseconds(dur), 61.0, 0.1);
}

TEST(ThreadExec, DoneAfterProgramAndRestartable)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_TRUE(thr.done());
    // Install and run a second program on the same thread.
    Program q;
    q.mark(1);
    thr.setProgram(std::move(q));
    EXPECT_FALSE(thr.started());
}

TEST(ThreadExec, ActiveNowReflectsStepKind)
{
    Simulation sim(quietChip(1.0));
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loop(InstClass::k256Heavy, 1000, 100); // ~101 us @1GHz
    p.idle(fromMicroseconds(50));
    thr.setProgram(std::move(p));
    thr.start();
    sim.eq().runUntil(fromMicroseconds(50));
    EXPECT_TRUE(thr.activeNow());
    EXPECT_EQ(thr.currentClass(), InstClass::k256Heavy);
    sim.eq().runUntil(fromMicroseconds(120));
    EXPECT_FALSE(thr.activeNow());
    EXPECT_FALSE(thr.currentClass().has_value());
}

TEST(ThreadExec, FrequencyScalesLoopDuration)
{
    for (double f : {1.0, 2.0}) {
        Simulation sim(quietChip(f));
        HwThread &thr = sim.chip().core(0).thread(0);
        Program p;
        p.mark(0);
        p.loop(InstClass::k256Heavy, 100, 100);
        p.mark(1);
        thr.setProgram(std::move(p));
        thr.start();
        sim.run();
        Time dur = thr.records()[1].time - thr.records()[0].time;
        EXPECT_NEAR(toMicroseconds(dur), 10.1 / f, 0.05);
    }
}

} // namespace
} // namespace ich
