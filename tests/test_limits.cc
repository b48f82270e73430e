/**
 * @file
 * Tests for the electrical-limit projections (paper §5.3 / Fig. 7a):
 * the desktop part trips Vccmax with AVX2 at 4.9 GHz, the mobile part
 * trips Iccmax with AVX2 at 3.1 GHz. Also pins the per-bin guardband
 * rows and the bin-indexed searches to the reference functions, bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>

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
          pm(gb, cfg.pmu.leakagePerCoreAmps, cfg.pmu.pstate.binsGhz)
    {
    }
};

std::vector<ChipConfig>
allPresets()
{
    return {presets::haswell(), presets::coffeeLake(), presets::cannonLake(),
            presets::skylakeServer(), presets::zenLike()};
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

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

TEST(Limits, BinRowsEqualTheGuardbandFunctionsOnEveryPreset)
{
    for (const ChipConfig &cfg : allPresets()) {
        SCOPED_TRACE(cfg.name);
        Models m(cfg);
        const auto &bins = cfg.pmu.pstate.binsGhz;
        ASSERT_EQ(m.pm.numBins(), bins.size());
        for (std::size_t b = 0; b < bins.size(); ++b) {
            EXPECT_TRUE(sameBits(m.pm.binGhz(b), bins[b]));
            EXPECT_TRUE(sameBits(m.pm.binBaseVolts(b),
                                 m.gb.baseVolts(bins[b])));
            for (int level = 0; level < m.gb.numLevels(); ++level)
                EXPECT_TRUE(sameBits(m.pm.binGbVolts(level, b),
                                     m.gb.gbVolts(level, bins[b])))
                    << "bin " << b << " level " << level;
        }
    }
}

/**
 * Random activity and levels 0-4 on every preset, at the preset's limits
 * and at tightened Vccmax / Iccmax that put the limit below the top bin:
 * the bin-indexed searches return exactly what the reference functions
 * return for the levelled activity.
 */
TEST(Limits, BinSearchesMatchTheReferenceOnRandomActivity)
{
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int below_top = 0;
    int at_lowest = 0;
    for (const ChipConfig &cfg : allPresets()) {
        SCOPED_TRACE(cfg.name);
        Models m(cfg);
        const auto &bins = cfg.pmu.pstate.binsGhz;
        for (int draw = 0; draw < 200; ++draw) {
            std::vector<CoreActivity> act(cfg.numCores);
            std::vector<int> levels(cfg.numCores);
            for (int c = 0; c < cfg.numCores; ++c) {
                act[c].active = unit(rng) < 0.6;
                act[c].cdynNf = cfg.core.cdynBaseNf + 6.0 * unit(rng);
                levels[c] = static_cast<int>(unit(rng) * 5.0);
                act[c].gbLevel = 4 - levels[c]; // never read
            }
            auto level_of = [&levels](std::size_t c) { return levels[c]; };
            std::vector<CoreActivity> levelled = act;
            for (int c = 0; c < cfg.numCores; ++c)
                levelled[c].gbLevel = levels[c];

            for (std::size_t b = 0; b < bins.size(); ++b)
                ASSERT_TRUE(sameBits(
                    m.pm.binVTargetVolts(b, act.size(), level_of),
                    m.pm.vTargetVolts(bins[b], levelled)));

            // The projection at a random bin, as a Vccmax or an Iccmax
            // limit (the search stops at or below that bin), and an
            // impossible pair (the lowest bin).
            std::size_t k = static_cast<std::size_t>(unit(rng) *
                                                     (bins.size() - 1));
            double vk = m.pm.vTargetVolts(bins[k], levelled);
            double ik = m.pm.iccAmps(bins[k], vk, levelled);
            for (const ElectricalLimits &lim :
                 {cfg.pmu.limits, ElectricalLimits{vk, 1e9},
                  ElectricalLimits{1e9, ik}, ElectricalLimits{0.5, 1.0}}) {
                std::size_t bin = m.pm.maxBin(act, level_of, lim);
                double ref = m.pm.maxFreqGhz(levelled, lim, bins);
                ASSERT_TRUE(sameBits(m.pm.binGhz(bin), ref))
                    << "draw " << draw << ": " << m.pm.binGhz(bin)
                    << " vs " << ref;
                below_top += bin + 1 < bins.size();
                at_lowest += bin == 0;
            }

            double watts = m.pm.powerWatts(bins[k], levelled);
            double ref = bins.front();
            for (auto it = bins.rbegin(); it != bins.rend(); ++it)
                if (m.pm.powerWatts(*it, levelled) <= watts) {
                    ref = *it;
                    break;
                }
            ASSERT_TRUE(sameBits(
                m.pm.binGhz(m.pm.maxBinWithinPower(act, level_of, watts)),
                ref));
        }
    }
    // The tightened limits really walked the bins.
    EXPECT_GT(below_top, 1000);
    EXPECT_GT(at_lowest, 1000);
}

} // namespace
} // namespace ich
