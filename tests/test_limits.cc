/**
 * @file
 * Tests for the electrical-limit projections (paper §5.3 / Fig. 7a):
 * the desktop part trips Vccmax with AVX2 at 4.9 GHz, the mobile part
 * trips Iccmax with AVX2 at 3.1 GHz.
 */

#include <gtest/gtest.h>

#include "chip/presets.hh"
#include "pmu/guardband.hh"
#include "pmu/limits.hh"

namespace ich
{
namespace
{

std::vector<CoreActivity>
activeCores(const ChipConfig &cfg, int n, InstClass cls)
{
    std::vector<CoreActivity> act(cfg.numCores);
    for (int i = 0; i < n; ++i) {
        act[i].active = true;
        act[i].cdynNf = cfg.core.cdynBaseNf + traits(cls).deltaCdynNf;
        act[i].gbLevel = traits(cls).guardbandLevel;
    }
    return act;
}

struct Models {
    GuardbandModel gb;
    ChipPowerModel pm;
    explicit Models(const ChipConfig &cfg)
        : gb(LoadLine(cfg.pmu.rllOhm), cfg.pmu.vf),
          pm(gb, cfg.pmu.leakagePerCoreAmps)
    {
    }
};

TEST(Limits, DesktopAvx2At49GhzExceedsVccmax)
{
    ChipConfig cfg = presets::coffeeLake();
    Models m(cfg);
    auto act = activeCores(cfg, 1, InstClass::k256Heavy);
    double v49 = m.pm.vTargetVolts(4.9, act);
    double v48 = m.pm.vTargetVolts(4.8, act);
    EXPECT_GT(v49, cfg.pmu.limits.vccMaxVolts);  // Fig. 7a violation
    EXPECT_LE(v48, cfg.pmu.limits.vccMaxVolts);  // 4.8 GHz is safe
}

TEST(Limits, DesktopNonAvxAt49GhzWithinVccmax)
{
    ChipConfig cfg = presets::coffeeLake();
    Models m(cfg);
    auto act = activeCores(cfg, 1, InstClass::kScalar64);
    EXPECT_LE(m.pm.vTargetVolts(4.9, act), cfg.pmu.limits.vccMaxVolts);
}

TEST(Limits, DesktopCurrentWellBelowIccmax)
{
    ChipConfig cfg = presets::coffeeLake();
    Models m(cfg);
    auto act = activeCores(cfg, 1, InstClass::k256Heavy);
    double v = m.pm.vTargetVolts(4.9, act);
    EXPECT_LT(m.pm.iccAmps(4.9, v, act), cfg.pmu.limits.iccMaxAmps);
}

TEST(Limits, MobileAvx2At31GhzExceedsIccmax)
{
    ChipConfig cfg = presets::cannonLake();
    Models m(cfg);
    auto act = activeCores(cfg, 2, InstClass::k256Heavy);
    double v31 = m.pm.vTargetVolts(3.1, act);
    double v22 = m.pm.vTargetVolts(2.2, act);
    EXPECT_GT(m.pm.iccAmps(3.1, v31, act), cfg.pmu.limits.iccMaxAmps);
    EXPECT_LE(m.pm.iccAmps(2.2, v22, act), cfg.pmu.limits.iccMaxAmps);
    // Voltage stays within limits on the mobile part (Fig. 7a).
    EXPECT_LE(v31, cfg.pmu.limits.vccMaxVolts);
}

TEST(Limits, MobileNonAvxAt31GhzWithinLimits)
{
    ChipConfig cfg = presets::cannonLake();
    Models m(cfg);
    auto act = activeCores(cfg, 2, InstClass::kScalar64);
    double v = m.pm.vTargetVolts(3.1, act);
    EXPECT_LE(m.pm.iccAmps(3.1, v, act), cfg.pmu.limits.iccMaxAmps);
    EXPECT_LE(v, cfg.pmu.limits.vccMaxVolts);
}

TEST(Limits, MaxFreqRespectsBothLimits)
{
    ChipConfig cfg = presets::cannonLake();
    Models m(cfg);
    auto act = activeCores(cfg, 2, InstClass::k256Heavy);
    double f = m.pm.maxFreqGhz(act, cfg.pmu.limits,
                               cfg.pmu.pstate.binsGhz);
    EXPECT_LT(f, 3.1);
    EXPECT_GE(f, 2.2);
    double v = m.pm.vTargetVolts(f, act);
    EXPECT_LE(m.pm.iccAmps(f, v, act), cfg.pmu.limits.iccMaxAmps);
}

TEST(Limits, MaxFreqFallsBackToLowestBin)
{
    ChipConfig cfg = presets::cannonLake();
    Models m(cfg);
    auto act = activeCores(cfg, 2, InstClass::k512Heavy);
    ElectricalLimits tight{0.5, 1.0}; // impossible limits
    double f = m.pm.maxFreqGhz(act, tight, cfg.pmu.pstate.binsGhz);
    EXPECT_DOUBLE_EQ(f, cfg.pmu.pstate.binsGhz.front());
}

TEST(Limits, EmptyBinsThrow)
{
    ChipConfig cfg = presets::cannonLake();
    Models m(cfg);
    EXPECT_THROW(m.pm.maxFreqGhz({}, cfg.pmu.limits, {}),
                 std::invalid_argument);
}

TEST(Limits, PowerGrowsWithActivity)
{
    ChipConfig cfg = presets::cannonLake();
    Models m(cfg);
    double p_idle =
        m.pm.powerWatts(2.2, std::vector<CoreActivity>(cfg.numCores));
    double p1 = m.pm.powerWatts(2.2,
                                activeCores(cfg, 1, InstClass::k256Heavy));
    double p2 = m.pm.powerWatts(2.2,
                                activeCores(cfg, 2, InstClass::k256Heavy));
    EXPECT_LT(p_idle, p1);
    EXPECT_LT(p1, p2);
}

} // namespace
} // namespace ich
