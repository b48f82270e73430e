/**
 * @file
 * Electrical design limits and the chip power/current projection model
 * (paper §2 "Voltage and Current Limit Protection", §5.3).
 *
 * Exceeding Iccmax can damage the VR or the chip; exceeding Vccmax is out
 * of spec. The PMU therefore reduces frequency so that the projected rail
 * voltage (with guardbands) and projected current stay within limits —
 * this, not thermals, is what slows AVX2/AVX-512 code at Turbo (Key
 * Conclusion 2).
 */

#ifndef ICH_PMU_LIMITS_HH
#define ICH_PMU_LIMITS_HH

#include <cassert>
#include <cstddef>
#include <vector>

#include "pmu/guardband.hh"

namespace ich
{

/** Maximum-rating limits of the VR / package. */
struct ElectricalLimits {
    double vccMaxVolts = 1.27;
    double iccMaxAmps = 100.0;
};

/** Instantaneous per-core activity snapshot for projections. */
struct CoreActivity {
    bool active = false;   ///< executing instructions (clocks ungated)
    double cdynNf = 0.0;   ///< instantaneous dynamic capacitance
    int gbLevel = 0;       ///< granted/pending guardband level
    /** Highest guardband level among classes executing right now. */
    int activeGbLevel = 0;
};

/**
 * Projects rail voltage and current for a hypothetical operating point.
 *
 * It also keeps one row per P-state bin: baseVolts(bin)
 * and gbVolts(level, bin) for every level, each the double those
 * functions return. The bin-indexed searches price a bin from its row
 * with the same additions in the same order as vTargetVolts, so they
 * return exactly what the reference path does, without a gbVolts call
 * per core and without a levelled copy of the activity.
 */
class ChipPowerModel
{
  public:
    ChipPowerModel(const GuardbandModel &gb, double leakage_per_core_amps,
                   std::vector<double> bins_ghz);

    /** Rail voltage target: base V(f) plus the sum of core guardbands. */
    double vTargetVolts(double freq_ghz,
                        const std::vector<CoreActivity> &act) const;

    /**
     * Supply current: Σ_active cores Cdyn·V·F plus leakage for powered
     * (non-power-gated) cores. Reads no gbLevel.
     */
    double iccAmps(double freq_ghz, double volts,
                   const std::vector<CoreActivity> &act) const;

    /** Package power at the given point (V · Icc). */
    double powerWatts(double freq_ghz,
                      const std::vector<CoreActivity> &act) const;

    /**
     * Highest frequency from @p bins_ghz (ascending) whose projected V
     * and I satisfy @p limits; falls back to the lowest bin. The
     * reference for maxBin(), and the search at any other bins.
     */
    double maxFreqGhz(const std::vector<CoreActivity> &act,
                      const ElectricalLimits &limits,
                      const std::vector<double> &bins_ghz) const;

    /** @name Per-bin rows (bins given at construction: ascending,
     *  non-empty) */
    ///@{
    std::size_t numBins() const { return binsGhz_.size(); }
    double binGhz(std::size_t bin) const { return binsGhz_[bin]; }
    /** baseVolts(binGhz(bin)), bit-for-bit. */
    double binBaseVolts(std::size_t bin) const { return rows_[bin * stride_]; }
    /** gbVolts(level, binGhz(bin)), bit-for-bit. */
    double
    binGbVolts(int level, std::size_t bin) const
    {
        return rows_[bin * stride_ + 1 + level];
    }

    /**
     * vTargetVolts(binGhz(bin), act) for @p cores cores, core c at
     * guardband level level_of(c): the same double.
     */
    template <class LevelOf>
    double
    binVTargetVolts(std::size_t bin, std::size_t cores,
                    LevelOf level_of) const
    {
        const double *row = &rows_[bin * stride_];
        double v = row[0];
        for (std::size_t c = 0; c < cores; ++c) {
            int level = level_of(c);
            assert(level >= 0 &&
                   static_cast<std::size_t>(level) + 1 < stride_);
            v += row[1 + level];
        }
        return v;
    }

    /**
     * Index of maxFreqGhz(act, limits, bins) where core c of @p act sits
     * at guardband level level_of(c) (act's own gbLevel is not read).
     */
    template <class LevelOf>
    std::size_t
    maxBin(const std::vector<CoreActivity> &act, LevelOf level_of,
           const ElectricalLimits &limits) const
    {
        for (std::size_t bin = binsGhz_.size(); bin-- > 0;) {
            double v = binVTargetVolts(bin, act.size(), level_of);
            if (v > limits.vccMaxVolts)
                continue;
            if (iccAmps(binsGhz_[bin], v, act) > limits.iccMaxAmps)
                continue;
            return bin;
        }
        return 0;
    }

    /**
     * Index of the highest bin whose powerWatts() at @p act, core c at
     * level level_of(c), is at most @p watts; the lowest bin if none.
     */
    template <class LevelOf>
    std::size_t
    maxBinWithinPower(const std::vector<CoreActivity> &act,
                      LevelOf level_of, double watts) const
    {
        for (std::size_t bin = binsGhz_.size(); bin-- > 0;) {
            double v = binVTargetVolts(bin, act.size(), level_of);
            if (v * iccAmps(binsGhz_[bin], v, act) <= watts)
                return bin;
        }
        return 0;
    }
    ///@}

    const GuardbandModel &guardband() const { return gb_; }

  private:
    const GuardbandModel &gb_;
    double leakagePerCoreAmps_;
    std::vector<double> binsGhz_;
    /** Row stride: baseVolts, then gbVolts for each level. */
    std::size_t stride_;
    /** numBins() rows of stride_ doubles. */
    std::vector<double> rows_;
};

} // namespace ich

#endif // ICH_PMU_LIMITS_HH
