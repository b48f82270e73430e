/**
 * @file
 * Tests for P-state helpers and license mapping (paper §5.3).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "pmu/pstate.hh"

namespace ich
{
namespace
{

TEST(Pstate, LicenseForGbLevel)
{
    EXPECT_EQ(licenseForGbLevel(0), 0); // scalar / 128b-light
    EXPECT_EQ(licenseForGbLevel(1), 0); // 128b-heavy
    EXPECT_EQ(licenseForGbLevel(2), 1); // 256b-light → LVL1
    EXPECT_EQ(licenseForGbLevel(3), 1); // 256b-heavy / 512b-light
    EXPECT_EQ(licenseForGbLevel(4), 2); // 512b-heavy → LVL2
}

TEST(Pstate, SnapDownToBin)
{
    std::vector<double> bins = {0.8, 1.0, 1.2, 1.4};
    EXPECT_DOUBLE_EQ(snapDownToBin(1.4, bins), 1.4);
    EXPECT_DOUBLE_EQ(snapDownToBin(1.35, bins), 1.2);
    EXPECT_DOUBLE_EQ(snapDownToBin(5.0, bins), 1.4);
    EXPECT_DOUBLE_EQ(snapDownToBin(0.5, bins), 0.8); // clamp to lowest
}

TEST(Pstate, SnapHandlesFloatNoise)
{
    std::vector<double> bins = {0.8, 1.0, 1.2};
    EXPECT_DOUBLE_EQ(snapDownToBin(1.2 - 1e-12, bins), 1.2);
}

/** The linear scan binIndexAtOrBelow replaced: last bin <= ghz+1e-9. */
std::size_t
linearIndexAtOrBelow(double ghz, const std::vector<double> &bins)
{
    std::size_t idx = 0;
    for (std::size_t i = 0; i < bins.size(); ++i)
        if (bins[i] <= ghz + 1e-9)
            idx = i;
    return idx;
}

TEST(Pstate, BinarySearchMatchesTheLinearScanOnEveryPreset)
{
    for (const ChipConfig &cfg :
         {presets::haswell(), presets::coffeeLake(), presets::cannonLake(),
          presets::skylakeServer(), presets::zenLike()}) {
        const std::vector<double> &bins = cfg.pmu.pstate.binsGhz;
        ASSERT_FALSE(bins.empty()) << cfg.name;
        std::vector<double> probes = {bins.front() - 0.5,
                                      bins.back() + 0.5};
        for (double b : bins)
            for (double d : {0.0, 1e-9, -1e-9, 1e-12, -1e-12})
                probes.push_back(b + d);
        for (double ghz : probes) {
            std::size_t want = linearIndexAtOrBelow(ghz, bins);
            EXPECT_EQ(binIndexAtOrBelow(ghz, bins), want)
                << cfg.name << " at " << ghz;
            EXPECT_EQ(snapDownToBin(ghz, bins), bins[want])
                << cfg.name << " at " << ghz;
        }
    }
}

TEST(Pstate, PmuRejectsEmptyOrUnsortedBins)
{
    ChipConfig cfg = presets::coffeeLake();
    cfg.pmu.pstate.binsGhz.clear();
    EXPECT_THROW(Simulation(cfg, 1), std::invalid_argument);
    cfg.pmu.pstate.binsGhz = {0.8, 1.2, 1.0};
    EXPECT_THROW(Simulation(cfg, 1), std::invalid_argument);
}

} // namespace
} // namespace ich
