#include "chip/chip.hh"

#include <cassert>
#include <cmath>

#include "state/snapshot.hh"

namespace ich
{

Chip::Chip(EventQueue &eq, Rng &rng, const ChipConfig &cfg)
    : eq_(eq), rng_(rng), cfg_(cfg), ticker_(eq), thermal_(cfg.thermal),
      activity_(cfg.numCores), activityDirty_(cfg.numCores, 1)
{
    for (CoreId i = 0; i < cfg_.numCores; ++i)
        cores_.push_back(std::make_unique<Core>(*this, i, cfg_.core));
    pmu_ = std::make_unique<CentralPmu>(eq_, rng_, ticker_, cfg_.pmu,
                                        *this);
    planner_ = std::make_unique<HorizonPlanner>(ticker_, *pmu_);
    thermalTick_.chip = this;
    if (cfg_.thermal.sampleInterval > 0)
        ticker_.add(thermalTick_,
                    TickRate{cfg_.thermal.sampleInterval, 0, 0});
}

Chip::~Chip()
{
    if (cfg_.thermal.sampleInterval > 0)
        ticker_.remove(thermalTick_);
}

Cycles
Chip::tscNow() const
{
    return tscAt(eq_.now());
}

Cycles
Chip::tscAt(Time t) const
{
    return static_cast<Cycles>(
        std::llround(static_cast<double>(t) * cfg_.tscGhz / 1000.0));
}

Time
Chip::tscToTime(Cycles tsc) const
{
    return static_cast<Time>(
        std::llround(static_cast<double>(tsc) * 1000.0 / cfg_.tscGhz));
}

void
Chip::phiStarted(CoreId core, int smt, InstClass cls)
{
    pmu_->onPhiStart(core, smt, cls);
}

void
Chip::kernelEnded(CoreId core, int smt, InstClass cls)
{
    pmu_->onKernelEnd(core, smt, cls);
}

void
Chip::markActivityDirty(CoreId c)
{
    activityDirty_.at(c) = 1;
    anyActivityDirty_ = true;
    ++activityEpoch_;
}

void
Chip::activityChanged(CoreId core)
{
    markActivityDirty(core);
    pmu_->onActivityChanged();
}

void
Chip::assertCoreThrottle(CoreId core, ThrottleReason reason, int initiator)
{
    Core &c = *cores_.at(core);
    c.touch();
    c.throttle().assertThrottle(reason, initiator);
    ++throttleEpoch_;
    c.refresh();
}

void
Chip::deassertCoreThrottle(CoreId core, ThrottleReason reason)
{
    Core &c = *cores_.at(core);
    c.touch();
    c.throttle().deassertThrottle(reason);
    ++throttleEpoch_;
    c.refresh();
}

void
Chip::beforeFreqChange()
{
    // Deferred chunk records still pending in any thread are priced at
    // the rate that was in force when they were crossed; materialize
    // them before the PLL moves.
    for (auto &core : cores_)
        core->materializePending();
}

void
Chip::scanCoreActivity(CoreId c, CoreActivity &a) const
{
    const Core &core = *cores_[c];
    a.active = core.anyThreadActive();
    a.cdynNf = core.cdynActiveNf();
    a.gbLevel = 0; // the PMU prices its own levels beside it
    a.activeGbLevel = core.activeGbLevelNow();
}

const std::vector<CoreActivity> &
Chip::coreActivity() const
{
    if (anyActivityDirty_) {
        for (CoreId c = 0; c < coreCount(); ++c) {
            if (activityDirty_[c]) {
                scanCoreActivity(c, activity_[c]);
                activityDirty_[c] = 0;
            }
        }
        anyActivityDirty_ = false;
    }
#ifndef NDEBUG
    // Oracle: a missed invalidation shows up as a stale field here.
    std::vector<CoreActivity> fresh(cores_.size());
    for (CoreId c = 0; c < coreCount(); ++c)
        scanCoreActivity(c, fresh[c]);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        assert(activity_[i].active == fresh[i].active);
        assert(activity_[i].cdynNf == fresh[i].cdynNf);
        assert(activity_[i].gbLevel == fresh[i].gbLevel);
        assert(activity_[i].activeGbLevel == fresh[i].activeGbLevel);
    }
#endif
    return activity_;
}

double
Chip::tjCelsius()
{
    return thermal_.update(eq_.now(), powerWatts());
}

void
Chip::saveState(state::SaveContext &ctx) const
{
    thermal_.saveState(ctx);
    for (const auto &core : cores_)
        core->saveState(ctx);
}

void
Chip::restoreState(state::SectionReader &r, state::RestoreContext &ctx)
{
    thermal_.restoreState(r);
    for (auto &core : cores_)
        core->restoreState(r, ctx);
    for (CoreId c = 0; c < coreCount(); ++c)
        markActivityDirty(c);
    ++throttleEpoch_;
}

} // namespace ich
