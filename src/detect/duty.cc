#include "detect/duty.hh"

#include <algorithm>

#include "state/archive.hh"
#include "state/snapshot.hh"

namespace ich
{
namespace detect
{

DutyCycleDetector::DutyCycleDetector(int cores, const DutyParams &p)
    : params_(p), throttledTicks_(cores, 0), lastAsserts_(cores, 0)
{
}

void
DutyCycleDetector::observe(const Observation &obs)
{
    if (obs.throttleChanged) {
        for (std::size_t c = 0; c < throttledTicks_.size(); ++c) {
            if (obs.throttled[c] || obs.asserts[c] != lastAsserts_[c])
                ++throttledTicks_[c];
            lastAsserts_[c] = obs.asserts[c];
        }
    } else if (obs.anyThrottled) {
        // No assert since the last tick: only the level counts.
        for (std::size_t c = 0; c < throttledTicks_.size(); ++c)
            if (obs.throttled[c])
                ++throttledTicks_[c];
    }
    if (++windowFill_ < params_.windowTicks)
        return;
    std::uint32_t worst =
        *std::max_element(throttledTicks_.begin(), throttledTicks_.end());
    lastResidency_ =
        static_cast<double>(worst) / params_.windowTicks;
    std::fill(throttledTicks_.begin(), throttledTicks_.end(), 0);
    windowFill_ = 0;
    notePeak(lastResidency_);
    noteAlarmLevel(lastResidency_ >= params_.threshold, obs.now);
}

void
DutyCycleDetector::saveState(state::SaveContext &ctx) const
{
    Detector::saveState(ctx);
    state::ArchiveWriter &w = ctx.w();
    w.putU32(static_cast<std::uint32_t>(throttledTicks_.size()));
    for (std::uint32_t t : throttledTicks_)
        w.putU32(t);
    for (std::uint64_t a : lastAsserts_)
        w.putU64(a);
    w.putI32(windowFill_);
    w.putF64(lastResidency_);
}

void
DutyCycleDetector::restoreState(state::SectionReader &r)
{
    Detector::restoreState(r);
    if (r.getU32() != throttledTicks_.size())
        throw state::ArchiveError(
            "DutyCycleDetector: core count mismatch");
    for (std::uint32_t &t : throttledTicks_)
        t = r.getU32();
    for (std::uint64_t &a : lastAsserts_)
        a = r.getU64();
    windowFill_ = r.getI32();
    lastResidency_ = r.getF64();
}

} // namespace detect
} // namespace ich
