/**
 * @file
 * Chip-level tests: TSC invariance, activity reporting and its cache,
 * measurement points, power-gate integration (Fig. 8b/c
 * first-iteration delta).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "state/state.hh"
#include "test_util.hh"

namespace ich
{
namespace
{

using test::pinnedCannonLake;
using test::quietChip;

/**
 * The cached coreActivity() and iccAmps() must equal a fresh rescan of
 * every core's threads, bit for bit.
 */
void
expectActivityMatchesThreads(const Chip &chip)
{
    const std::vector<CoreActivity> &act = chip.coreActivity();
    ASSERT_EQ(act.size(), static_cast<std::size_t>(chip.coreCount()));
    std::vector<CoreActivity> fresh(act.size());
    for (CoreId c = 0; c < chip.coreCount(); ++c) {
        fresh[c].active = chip.core(c).anyThreadActive();
        fresh[c].cdynNf = chip.core(c).cdynActiveNf();
        fresh[c].activeGbLevel = chip.core(c).activeGbLevelNow();
        EXPECT_EQ(act[c].active, fresh[c].active) << "core " << c;
        EXPECT_EQ(act[c].cdynNf, fresh[c].cdynNf) << "core " << c;
        EXPECT_EQ(act[c].gbLevel, 0) << "core " << c;
        EXPECT_EQ(act[c].activeGbLevel, fresh[c].activeGbLevel)
            << "core " << c;
    }
    EXPECT_EQ(chip.iccAmps(),
              chip.pmu().powerModel().iccAmps(chip.freqGhz(),
                                              chip.vccVolts(), fresh));
}

/** Which step kind @p thr is in, as a label. */
std::string
phaseOf(const HwThread &thr)
{
    if (thr.done())
        return "done";
    auto cls = thr.currentClass();
    if (!cls)
        return "idle";
    if (*cls == InstClass::k512Heavy)
        return "512";
    if (*cls == InstClass::kScalar64)
        return "rdtsc";
    return "other";
}

TEST(Chip, TscCountsAtBaseClockRegardlessOfCoreFreq)
{
    for (double f : {1.0, 2.2}) {
        Simulation sim(quietChip(f));
        Chip &chip = sim.chip();
        sim.eq().runUntil(fromMicroseconds(100));
        // 100 us at tscGhz=2.2 => 220000 cycles, independent of f.
        EXPECT_NEAR(static_cast<double>(chip.tscNow()), 220000.0, 2.0);
    }
}

TEST(Chip, TscRoundTrips)
{
    Simulation sim(quietChip());
    Chip &chip = sim.chip();
    Cycles c = 123456;
    Time t = chip.tscToTime(c);
    sim.eq().runUntil(t);
    EXPECT_NEAR(static_cast<double>(chip.tscNow()),
                static_cast<double>(c), 2.0);
}

TEST(Chip, CoreActivityReportsRunningClass)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    Program p;
    p.loop(InstClass::k256Heavy, 1000, 100);
    chip.core(1).thread(0).setProgram(std::move(p));
    chip.core(1).thread(0).start();
    sim.eq().runUntil(fromMicroseconds(10));
    auto act = chip.coreActivity();
    EXPECT_FALSE(act[0].active);
    EXPECT_TRUE(act[1].active);
    EXPECT_DOUBLE_EQ(act[1].cdynNf,
                     chip.config().core.cdynBaseNf +
                         traits(InstClass::k256Heavy).deltaCdynNf);
    EXPECT_EQ(act[1].activeGbLevel, 3);
}

// The activity cache follows one thread through every step kind, and
// the thread takes a new program once done.
TEST(Chip, ActivityCacheFollowsThreadPhases)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    const Time idle = fromMicroseconds(30);
    const Time wait_end =
        test::kernelPicos(Kernel{InstClass::k512Heavy, 2000, 100}, 1.0) +
        idle + fromMicroseconds(30);
    Program p;
    p.loop(InstClass::k512Heavy, 2000, 100);
    p.idle(idle);
    p.waitUntilTsc(chip.tscAt(wait_end));
    thr.setProgram(std::move(p));
    expectActivityMatchesThreads(chip);
    const double icc_idle = chip.iccAmps();

    thr.start();
    std::vector<std::string> phases;
    for (int step = 0; step < 1000 && !thr.done(); ++step) {
        sim.eq().runUntil(sim.eq().now() + fromMicroseconds(1));
        std::string phase = phaseOf(thr);
        if (phases.empty() || phases.back() != phase)
            phases.push_back(phase);
        expectActivityMatchesThreads(chip);
        if (phase == "512") {
            EXPECT_GT(chip.iccAmps(), icc_idle);
        }
    }
    EXPECT_EQ(phases, (std::vector<std::string>{"512", "idle", "rdtsc",
                                                "done"}));
    EXPECT_FALSE(chip.coreActivity()[0].active);

    Program again;
    again.loop(InstClass::k256Heavy, 1000, 100);
    thr.setProgram(std::move(again));
    expectActivityMatchesThreads(chip);
    thr.start();
    sim.eq().runUntil(sim.eq().now() + fromMicroseconds(5));
    EXPECT_TRUE(chip.coreActivity()[0].active);
    EXPECT_EQ(chip.coreActivity()[0].activeGbLevel,
              traits(InstClass::k256Heavy).guardbandLevel);
    expectActivityMatchesThreads(chip);
    sim.run();
    EXPECT_TRUE(thr.done());
    expectActivityMatchesThreads(chip);
}

// Restoring a snapshot replaces thread state without activityChanged(),
// so an activity cache filled while the chip was busy must not survive.
TEST(Chip, RestoreDropsActivityCachedWhileBusy)
{
    Simulation quiet(quietChip(1.0));
    quiet.eq().runUntil(fromMicroseconds(10));
    const state::Buffer snap = state::snapshot(quiet);

    Simulation busy(quietChip(1.0));
    Chip &chip = busy.chip();
    Program p;
    p.loop(InstClass::k512Heavy, 2000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    busy.eq().runUntil(fromMicroseconds(10));
    ASSERT_TRUE(chip.coreActivity()[0].active);

    state::ArchiveReader archive(snap);
    state::SectionReader section = archive.open("chip");
    state::RestoreContext ctx(busy.eq());
    chip.restoreState(section, ctx);
    const CoreActivity &a = chip.coreActivity()[0];
    EXPECT_FALSE(a.active);
    EXPECT_EQ(a.cdynNf, 0.0);
    EXPECT_EQ(a.activeGbLevel, 0);
    expectActivityMatchesThreads(chip);
}

// The cache is invalidated per core: staggered programs on two SMT
// siblings of core 3 and on core 11 of the 16-core server part must
// each refresh their own entry (and leave the idle cores' entries
// alone) at every phase change, with the PMU throttling and changing
// licenses underneath.
TEST(Chip, PerCoreActivityCacheFollowsStaggeredServerThreads)
{
    Simulation sim(presets::skylakeServer());
    Chip &chip = sim.chip();
    ASSERT_EQ(chip.coreCount(), 16);
    HwThread &a = chip.core(3).thread(0);
    HwThread &b = chip.core(3).thread(1);
    HwThread &c = chip.core(11).thread(0);

    Program pa;
    pa.loop(InstClass::k512Heavy, 3000, 100);
    pa.idle(fromMicroseconds(15));
    pa.loop(InstClass::k256Light, 2000, 100);
    a.setProgram(std::move(pa));
    Program pb;
    pb.loop(InstClass::k256Heavy, 2000, 100);
    pb.idle(fromMicroseconds(20));
    pb.loop(InstClass::k512Heavy, 1000, 100);
    b.setProgram(std::move(pb));
    const Time c_start = fromMicroseconds(9);
    const Kernel c_first{InstClass::k128Heavy, 2000, 100};
    Program pc;
    pc.loop(c_first.cls, c_first.iterations, c_first.unroll);
    pc.waitUntilTsc(chip.tscAt(
        c_start + 2 * test::kernelPicos(c_first, chip.freqGhz()) +
        fromMicroseconds(20)));
    pc.loop(InstClass::k512Light, 1500, 100);
    c.setProgram(std::move(pc));
    expectActivityMatchesThreads(chip);

    struct Staggered {
        HwThread *thr;
        Time startAt;
        std::vector<std::string> phases;
    };
    std::vector<Staggered> threads{{&a, fromMicroseconds(1), {}},
                                   {&b, fromMicroseconds(4), {}},
                                   {&c, c_start, {}}};
    bool all_done = false;
    for (int step = 0; step < 2000 && !all_done; ++step) {
        sim.eq().runUntil(sim.eq().now() + fromMicroseconds(1));
        all_done = true;
        for (Staggered &s : threads) {
            if (!s.thr->started() && sim.eq().now() >= s.startAt)
                s.thr->start();
            if (!s.thr->started()) {
                all_done = false;
                continue;
            }
            all_done = all_done && s.thr->done();
            std::string phase = phaseOf(*s.thr);
            if (s.phases.empty() || s.phases.back() != phase)
                s.phases.push_back(phase);
        }
        expectActivityMatchesThreads(chip);
        const std::vector<CoreActivity> &act = chip.coreActivity();
        for (CoreId id = 0; id < chip.coreCount(); ++id)
            if (id != 3 && id != 11) {
                EXPECT_FALSE(act[id].active) << "core " << id;
            }
    }
    ASSERT_TRUE(all_done);
    // Every thread went through both loops and the gap between them.
    for (const Staggered &s : threads)
        EXPECT_GE(s.phases.size(), 4u) << ::testing::PrintToString(s.phases);
    EXPECT_GT(chip.pmu().voltageRequests(), 0u);
}

// Restoring must refresh every core, not only core 0: here the busy
// core whose cached entry would go stale is core 7, on its second SMT
// thread.
TEST(Chip, RestoreDropsActivityCachedOnABusyServerCore)
{
    Simulation quiet(presets::skylakeServer());
    quiet.eq().runUntil(fromMicroseconds(10));
    const state::Buffer snap = state::snapshot(quiet);

    Simulation busy(presets::skylakeServer());
    Chip &chip = busy.chip();
    Program p;
    p.loop(InstClass::k512Heavy, 2000, 100);
    chip.core(7).thread(1).setProgram(std::move(p));
    chip.core(7).thread(1).start();
    busy.eq().runUntil(fromMicroseconds(10));
    ASSERT_TRUE(chip.coreActivity()[7].active);

    state::ArchiveReader archive(snap);
    state::SectionReader section = archive.open("chip");
    state::RestoreContext ctx(busy.eq());
    chip.restoreState(section, ctx);
    const CoreActivity &a = chip.coreActivity()[7];
    EXPECT_FALSE(a.active);
    EXPECT_EQ(a.cdynNf, 0.0);
    EXPECT_EQ(a.activeGbLevel, 0);
    expectActivityMatchesThreads(chip);
}

TEST(Chip, CoreActivityIsCachedStorage)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    Program p;
    p.loop(InstClass::k256Heavy, 1000, 100);
    chip.core(1).thread(0).setProgram(std::move(p));
    chip.core(1).thread(0).start();
    sim.eq().runUntil(fromMicroseconds(10));
    const std::vector<CoreActivity> &first = chip.coreActivity();
    const std::vector<CoreActivity> &second = chip.coreActivity();
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(first.data(), second.data());
}

TEST(Chip, IccGrowsWithActivity)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    double icc_idle = chip.iccAmps();
    Program p;
    p.loop(InstClass::k512Heavy, 2000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMicroseconds(20));
    EXPECT_GT(chip.iccAmps(), icc_idle);
    EXPECT_GT(chip.powerWatts(), 0.0);
}

TEST(Chip, TjCelsiusAdvancesThermalState)
{
    Simulation sim(quietChip(1.0));
    Chip &chip = sim.chip();
    Program p;
    p.loop(InstClass::k512Heavy, 2000000, 100);
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.eq().runUntil(fromMilliseconds(50));
    double t = chip.tjCelsius();
    EXPECT_GT(t, chip.thermal().config().ambientCelsius);
    EXPECT_LT(t, chip.thermal().config().tjMaxCelsius);
}

// Fig. 8b: on parts with an AVX power gate, the first iteration of an
// AVX2 loop is ~8-15 ns longer than subsequent iterations.
TEST(Chip, FirstAvxIterationPaysGateWakeup)
{
    ChipConfig cfg = quietChip(3.0); // secure mode: isolate the PG cost
    Simulation sim(cfg);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loopChunked(InstClass::k256Heavy, 3, 1, /*tag=*/0, 300);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    ASSERT_EQ(recs.size(), 3u);
    // records are per-iteration completion times; start was at ~0.
    Time it1 = recs[0].time;
    Time it2 = recs[1].time - recs[0].time;
    Time it3 = recs[2].time - recs[1].time;
    double d1 = toNanoseconds(it1) - toNanoseconds(it2);
    EXPECT_GE(d1, 7.0);  // wake-up cost visible on iteration 1
    EXPECT_LE(d1, 16.0);
    EXPECT_NEAR(toNanoseconds(it2), toNanoseconds(it3), 0.5);
}

// Fig. 8c: Haswell has no AVX power gate — all iterations equal.
TEST(Chip, HaswellHasNoFirstIterationDelta)
{
    ChipConfig cfg = presets::haswell();
    cfg.pmu.secureMode = true;
    cfg.pmu.vr.commandJitter = 0;
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 3.0;
    Simulation sim(cfg);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loopChunked(InstClass::k256Heavy, 3, 1, 0, 300);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    Time it1 = recs[0].time;
    Time it2 = recs[1].time - recs[0].time;
    EXPECT_NEAR(toNanoseconds(it1), toNanoseconds(it2), 1.0);
}

TEST(Chip, ThrottleAssertReleaseBalance)
{
    Simulation sim(pinnedCannonLake(1.4));
    Chip &chip = sim.chip();
    Program p;
    for (int i = 0; i < 3; ++i) {
        p.loop(InstClass::k512Heavy, 400, 100);
        p.idle(fromMicroseconds(800)); // past reset-time each round
    }
    chip.core(0).thread(0).setProgram(std::move(p));
    chip.core(0).thread(0).start();
    sim.run(fromMilliseconds(10));
    EXPECT_FALSE(chip.core(0).throttle().throttled());
    EXPECT_EQ(chip.core(0).throttle().assertCount(), 3u);
}

} // namespace
} // namespace ich
