/**
 * @file
 * Tests for the central PMU's guardband / throttle orchestration on a
 * full chip: throttle-on-PHI, release-on-settle, level upgrades,
 * secure-mode, P-state transitions at turbo. Rail targets and limit
 * decisions are also checked bit for bit against the reference sums on
 * per-core VR domains, in secure mode and below the top bin.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "test_util.hh"

namespace ich
{
namespace
{

using test::pinnedCannonLake;

ChipConfig
noJitter(ChipConfig cfg)
{
    cfg.pmu.vr.commandJitter = 0;
    return cfg;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Rail target of @p domain by the reference sum: base V(f) plus
 *  gbVolts of each of its cores' granted level, in core order. */
double
referenceTarget(const Chip &chip, int domain)
{
    const CentralPmu &pmu = chip.pmu();
    const GuardbandModel &gb = pmu.guardbandModel();
    double f = chip.freqGhz();
    double v = gb.baseVolts(f);
    for (int c = 0; c < chip.coreCount(); ++c)
        if (!pmu.config().perCoreVr || c == domain)
            v += gb.gbVolts(pmu.grantedLevel(c), f);
    return v;
}

void
runLoop(Chip &chip, int core, InstClass cls, std::uint64_t iters)
{
    Program p;
    p.loop(cls, iters, 100);
    chip.core(core).thread(0).setProgram(std::move(p));
    chip.core(core).thread(0).start();
}

TEST(CentralPmu, PhiAssertsThrottleUntilRampSettles)
{
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::k512Heavy, 600, 100);
    thr.setProgram(std::move(p));
    thr.start();
    // Immediately after the PHI starts the core must be throttled.
    sim.eq().runUntil(fromNanoseconds(100));
    EXPECT_TRUE(chip.core(0).throttle().throttled());
    // After the ramp (~10 us at these parameters) it must be released.
    sim.eq().runUntil(fromMicroseconds(20));
    EXPECT_FALSE(chip.core(0).throttle().throttled());
    EXPECT_EQ(chip.pmu().grantedLevel(0), 4);
}

TEST(CentralPmu, VoltageRisesByGuardband)
{
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    double v0 = chip.vccVolts();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::k256Heavy, 600, 100);
    thr.setProgram(std::move(p));
    thr.start();
    sim.eq().runUntil(fromMicroseconds(30));
    double expected =
        chip.pmu().guardbandModel().gbVolts(3, chip.freqGhz());
    EXPECT_NEAR(chip.vccVolts() - v0, expected, 1e-4);
}

TEST(CentralPmu, NonPhiNeverThrottles)
{
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::kScalar64, 1000, 100);
    p.loop(InstClass::k128Light, 1000, 100);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_EQ(chip.core(0).throttle().assertCount(), 0u);
    EXPECT_EQ(chip.pmu().voltageRequests(), 0u);
}

TEST(CentralPmu, SecondPhiAtSameLevelNotThrottled)
{
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::k256Heavy, 400, 100);
    p.idle(fromMicroseconds(50)); // well inside the 650 us reset-time
    p.loop(InstClass::k256Heavy, 400, 100);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    // Only the first loop requested a transition.
    EXPECT_EQ(chip.pmu().voltageRequests(), 1u);
}

TEST(CentralPmu, HigherLevelPhiUpgradesGuardband)
{
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::k128Heavy, 400, 100);
    p.idle(fromMicroseconds(50));
    p.loop(InstClass::k512Heavy, 400, 100);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_EQ(chip.pmu().voltageRequests(), 2u);
    EXPECT_EQ(chip.pmu().grantedLevel(0), 4);
}

TEST(CentralPmu, LowerLevelAfterHigherNotThrottled)
{
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::k512Heavy, 400, 100);
    p.idle(fromMicroseconds(50));
    p.loop(InstClass::k128Heavy, 400, 100); // voltage already covers it
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_EQ(chip.pmu().voltageRequests(), 1u);
}

TEST(CentralPmu, SecureModeNeverThrottlesNorTransitions)
{
    ChipConfig cfg = noJitter(pinnedCannonLake(1.4));
    cfg.pmu.secureMode = true;
    Simulation sim(cfg);
    Chip &chip = sim.chip();
    double v0 = chip.vccVolts();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    p.loop(InstClass::k512Heavy, 600, 100);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_EQ(chip.core(0).throttle().assertCount(), 0u);
    EXPECT_EQ(chip.pmu().voltageRequests(), 0u);
    EXPECT_DOUBLE_EQ(chip.vccVolts(), v0);
    // Secure-mode voltage already includes the worst-case guardband.
    double base = chip.pmu().guardbandModel().baseVolts(chip.freqGhz());
    EXPECT_GT(v0, base);
}

TEST(CentralPmu, TurboAvx2TriggersPstateReduction)
{
    // Fig. 7b shape: at max turbo, starting AVX2 forces a frequency
    // reduction within tens of microseconds (current limit, not heat).
    ChipConfig cfg = noJitter(presets::cannonLake());
    cfg.pmu.governor.policy = GovernorPolicy::kPerformance;
    Simulation sim(cfg);
    Chip &chip = sim.chip();
    double f0 = chip.freqGhz();
    EXPECT_NEAR(f0, 3.2, 1e-9);
    // Two cores run AVX2-heavy.
    for (int c = 0; c < 2; ++c) {
        Program p;
        p.loop(InstClass::k256Heavy, 200000, 100);
        chip.core(c).thread(0).setProgram(std::move(p));
        chip.core(c).thread(0).start();
    }
    sim.eq().runUntil(fromMicroseconds(200));
    EXPECT_LT(chip.freqGhz(), f0);
    EXPECT_LE(chip.freqGhz(), cfg.pmu.pstate.licenseMaxGhz[1] + 1e-9);
    EXPECT_GE(chip.pmu().pstateTransitions(), 1u);
    // Current must now be within the mobile Iccmax (29 A).
    EXPECT_LE(chip.iccAmps(), cfg.pmu.limits.iccMaxAmps + 0.5);
}

TEST(CentralPmu, FixedLowFrequencyNeverChangesFrequency)
{
    // Fig. 6 conclusion 2: at low pinned frequency only the voltage
    // moves, never the clock.
    Simulation sim(noJitter(pinnedCannonLake(1.4)));
    Chip &chip = sim.chip();
    HwThread &thr = chip.core(0).thread(0);
    Program p;
    for (int i = 0; i < 5; ++i) {
        p.loop(InstClass::k512Heavy, 400, 100);
        p.idle(fromMicroseconds(100));
    }
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    EXPECT_DOUBLE_EQ(chip.freqGhz(), 1.4);
    EXPECT_EQ(chip.pmu().pstateTransitions(), 0u);
}

TEST(CentralPmu, GovernorWriteTakesEffectAfterLatency)
{
    ChipConfig cfg = noJitter(pinnedCannonLake(1.4));
    cfg.pmu.governor.applyLatency = fromMicroseconds(100);
    Simulation sim(cfg);
    Chip &chip = sim.chip();
    chip.pmu().writeGovernor(GovernorPolicy::kUserspace, 2.0);
    sim.eq().runUntil(fromMicroseconds(50));
    EXPECT_DOUBLE_EQ(chip.freqGhz(), 1.4);
    // Upclock also waits for the (non-license) upclock delay + P-state.
    sim.eq().runUntil(fromMilliseconds(5));
    EXPECT_DOUBLE_EQ(chip.freqGhz(), 2.0);
}

TEST(CentralPmu, PerCoreVrRailsCarryOnlyTheirCoreGuardband)
{
    ChipConfig cfg = noJitter(presets::zenLike());
    ASSERT_TRUE(cfg.pmu.perCoreVr);
    Simulation sim(cfg);
    Chip &chip = sim.chip();
    runLoop(chip, 1, InstClass::k256Heavy, 200000);
    sim.eq().runUntil(fromMicroseconds(100));
    ASSERT_EQ(chip.pmu().grantedLevel(1), 3);
    ASSERT_EQ(chip.pmu().numDomains(), chip.coreCount());
    for (int d = 0; d < chip.pmu().numDomains(); ++d)
        EXPECT_TRUE(sameBits(chip.pmu().voltsDomain(d),
                             referenceTarget(chip, d)))
            << "domain " << d;
    EXPECT_GT(chip.pmu().voltsDomain(1), chip.pmu().voltsDomain(0));
}

TEST(CentralPmu, SecureModeRailIsTheWorstCaseSumOnEveryDomain)
{
    for (ChipConfig cfg : {pinnedCannonLake(1.4), presets::zenLike()}) {
        SCOPED_TRACE(cfg.name);
        cfg = noJitter(cfg);
        cfg.pmu.secureMode = true;
        Simulation sim(cfg);
        Chip &chip = sim.chip();
        runLoop(chip, 0, InstClass::k256Heavy, 200000);
        sim.eq().runUntil(fromMicroseconds(100));
        int top = chip.pmu().guardbandModel().numLevels() - 1;
        for (int d = 0; d < chip.pmu().numDomains(); ++d) {
            EXPECT_EQ(chip.pmu().grantedLevel(d), top);
            EXPECT_TRUE(sameBits(chip.pmu().voltsDomain(d),
                                 referenceTarget(chip, d)))
                << "domain " << d;
        }
    }
}

TEST(CentralPmu, TightVccmaxWalksTheLimitBelowTheTopBin)
{
    // Vccmax set to the projected rail at bin k with one core at AVX2's
    // level 3 (the rail does not depend on cdyn): the idle chip starts
    // above k but below the top bin, the PHI's limit search walks down
    // to exactly k, and the settled rail is that bin's projection.
    // Licenses and Iccmax never bind.
    ChipConfig cfg = noJitter(presets::coffeeLake());
    cfg.pmu.governor.policy = GovernorPolicy::kPerformance;
    const auto &bins = cfg.pmu.pstate.binsGhz;
    cfg.pmu.pstate.licenseMaxGhz = {bins.back(), bins.back(), bins.back()};
    std::size_t k = bins.size() - 4;
    GuardbandModel gb(LoadLine(cfg.pmu.rllOhm), cfg.pmu.vf);
    ChipPowerModel pm(gb, cfg.pmu.leakagePerCoreAmps,
                      cfg.pmu.pstate.binsGhz);
    std::vector<CoreActivity> avx2(cfg.numCores);
    avx2[0].gbLevel = 3;
    cfg.pmu.limits = ElectricalLimits{pm.vTargetVolts(bins[k], avx2), 1e9};

    Simulation sim(cfg);
    Chip &chip = sim.chip();
    EXPECT_GT(chip.freqGhz(), bins[k] + 0.05);
    EXPECT_LT(chip.freqGhz(), bins.back() - 0.05);
    runLoop(chip, 0, InstClass::k256Heavy, 2000000);
    sim.eq().runUntil(fromMilliseconds(1));
    ASSERT_EQ(chip.pmu().grantedLevel(0), 3);
    EXPECT_TRUE(sameBits(chip.freqGhz(), bins[k])) << chip.freqGhz();

    std::vector<CoreActivity> levelled = chip.coreActivity();
    for (int c = 0; c < chip.coreCount(); ++c)
        levelled[c].gbLevel = chip.pmu().grantedLevel(c);
    EXPECT_TRUE(sameBits(chip.freqGhz(),
                         chip.pmu().powerModel().maxFreqGhz(
                             levelled, cfg.pmu.limits, bins)));
    EXPECT_TRUE(sameBits(chip.vccVolts(), referenceTarget(chip, 0)));
    EXPECT_TRUE(sameBits(chip.vccVolts(), pm.vTargetVolts(bins[k], avx2)));
}

} // namespace
} // namespace ich
