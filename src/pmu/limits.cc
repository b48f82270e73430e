#include "pmu/limits.hh"

#include <stdexcept>
#include <utility>

namespace ich
{

ChipPowerModel::ChipPowerModel(const GuardbandModel &gb,
                               double leakage_per_core_amps,
                               std::vector<double> bins_ghz)
    : gb_(gb), leakagePerCoreAmps_(leakage_per_core_amps),
      binsGhz_(std::move(bins_ghz)),
      stride_(1 + static_cast<std::size_t>(gb.numLevels()))
{
    if (binsGhz_.empty())
        throw std::invalid_argument("ChipPowerModel: no frequency bins");
    rows_.reserve(binsGhz_.size() * stride_);
    for (double f : binsGhz_) {
        rows_.push_back(gb_.baseVolts(f));
        for (int level = 0; level < gb_.numLevels(); ++level)
            rows_.push_back(gb_.gbVolts(level, f));
    }
}

double
ChipPowerModel::vTargetVolts(double freq_ghz,
                             const std::vector<CoreActivity> &act) const
{
    double v = gb_.baseVolts(freq_ghz);
    for (const auto &a : act)
        v += gb_.gbVolts(a.gbLevel, freq_ghz);
    return v;
}

double
ChipPowerModel::iccAmps(double freq_ghz, double volts,
                        const std::vector<CoreActivity> &act) const
{
    double icc = 0.0;
    for (const auto &a : act) {
        icc += leakagePerCoreAmps_;
        if (a.active)
            icc += a.cdynNf * 1e-9 * volts * freq_ghz * 1e9;
    }
    return icc;
}

double
ChipPowerModel::powerWatts(double freq_ghz,
                           const std::vector<CoreActivity> &act) const
{
    double v = vTargetVolts(freq_ghz, act);
    return v * iccAmps(freq_ghz, v, act);
}

double
ChipPowerModel::maxFreqGhz(const std::vector<CoreActivity> &act,
                           const ElectricalLimits &limits,
                           const std::vector<double> &bins_ghz) const
{
    if (bins_ghz.empty())
        throw std::invalid_argument("maxFreqGhz: no frequency bins");
    for (auto it = bins_ghz.rbegin(); it != bins_ghz.rend(); ++it) {
        double f = *it;
        double v = vTargetVolts(f, act);
        if (v > limits.vccMaxVolts)
            continue;
        if (iccAmps(f, v, act) > limits.iccMaxAmps)
            continue;
        return f;
    }
    return bins_ghz.front();
}

} // namespace ich
