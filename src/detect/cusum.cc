#include "detect/cusum.hh"

#include <algorithm>

#include "state/archive.hh"
#include "state/snapshot.hh"

namespace ich
{
namespace detect
{

CusumDetector::CusumDetector(const CusumParams &p)
    : params_(p), warmupLeft_(std::max(1, p.warmupTicks))
{
}

double
CusumDetector::statistic() const
{
    return std::max(freePos_, freeNeg_);
}

void
CusumDetector::observe(const Observation &obs)
{
    double p = obs.powerWatts;
    if (warmupLeft_ > 0) {
        warmupSum_ += p;
        if (--warmupLeft_ == 0)
            mu0_ = warmupSum_ / params_.warmupTicks;
        return;
    }
    double k = params_.driftWatts;
    sPos_ = std::max(0.0, sPos_ + (p - mu0_ - k));
    sNeg_ = std::max(0.0, sNeg_ + (mu0_ - p - k));
    freePos_ = std::max(0.0, freePos_ + (p - mu0_ - k));
    freeNeg_ = std::max(0.0, freeNeg_ + (mu0_ - p - k));
    notePeak(std::max(freePos_, freeNeg_));
    bool above = std::max(sPos_, sNeg_) >= params_.threshold;
    noteAlarmLevel(above, obs.now);
    if (above) {
        // Classic CUSUM restart after an alarm.
        sPos_ = 0.0;
        sNeg_ = 0.0;
    }
}

void
CusumDetector::saveState(state::SaveContext &ctx) const
{
    Detector::saveState(ctx);
    state::ArchiveWriter &w = ctx.w();
    w.putI32(warmupLeft_);
    w.putF64(warmupSum_);
    w.putF64(mu0_);
    w.putF64(sPos_);
    w.putF64(sNeg_);
    w.putF64(freePos_);
    w.putF64(freeNeg_);
}

void
CusumDetector::restoreState(state::SectionReader &r)
{
    Detector::restoreState(r);
    warmupLeft_ = r.getI32();
    warmupSum_ = r.getF64();
    mu0_ = r.getF64();
    sPos_ = r.getF64();
    sNeg_ = r.getF64();
    freePos_ = r.getF64();
    freeNeg_ = r.getF64();
}

} // namespace detect
} // namespace ich
