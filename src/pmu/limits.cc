#include "pmu/limits.hh"

#include <stdexcept>

namespace ich
{

ChipPowerModel::ChipPowerModel(const GuardbandModel &gb,
                               double leakage_per_core_amps)
    : gb_(gb), leakagePerCoreAmps_(leakage_per_core_amps)
{
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
