#include "pmu/central_pmu.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "state/snapshot.hh"

namespace ich
{

namespace
{
constexpr double kGhzEps = 1e-6;

#ifndef NDEBUG
// The row-priced paths below must return the reference path's doubles
// bit for bit; builds without NDEBUG recompute and compare.
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The reference path's input: @p act with core c at level_of(c). */
template <class LevelOf>
std::vector<CoreActivity>
withLevels(std::vector<CoreActivity> act, LevelOf level_of)
{
    for (std::size_t c = 0; c < act.size(); ++c)
        act[c].gbLevel = level_of(c);
    return act;
}
#endif
} // namespace

CentralPmu::CentralPmu(EventQueue &eq, Rng &rng, Ticker &ticker,
                       const PmuConfig &cfg, PmuHooks &hooks)
    : eq_(eq), rng_(rng), ticker_(ticker), cfg_(cfg), hooks_(hooks),
      gbModel_(LoadLine(cfg.rllOhm), cfg.vf),
      powerModel_(gbModel_, cfg.leakagePerCoreAmps, cfg.pstate.binsGhz),
      governor_(cfg.governor)
{
    const std::vector<double> &bins = cfg_.pstate.binsGhz;
    if (bins.empty())
        throw std::invalid_argument("CentralPmu: no frequency bins");
    if (!std::is_sorted(bins.begin(), bins.end()))
        throw std::invalid_argument(
            "CentralPmu: frequency bins must be ascending");
    coreState_.assign(hooks_.numCores(), CoreState{});
    governorEval_.pmu = this;
    if (cfg_.governor.evalInterval > 0)
        ticker_.add(governorEval_,
                    TickRate{cfg_.governor.evalInterval, 0, 0});

    // Initial frequency: governor request clipped by limits at idle.
    double desired = governor_.requestGhz(cfg_.pstate.minGhz,
                                          cfg_.pstate.binsGhz.back());
    desired = snapDownToBin(desired, cfg_.pstate.binsGhz);
    std::vector<CoreActivity> idle(hooks_.numCores());
    if (cfg_.secureMode) {
        int top = gbModel_.numLevels() - 1;
        for (auto &a : idle)
            a.gbLevel = top;
        for (auto &cs : coreState_) {
            cs.granted = top;
            cs.pending = top;
        }
    }
    double limit = powerModel_.maxFreqGhz(idle, cfg_.limits,
                                          cfg_.pstate.binsGhz);
    freqGhz_ = std::min(desired, limit);
    freqBin_ = binIndexAtOrBelow(freqGhz_, bins);
    assert(bins[freqBin_] == freqGhz_);

    // One VR/SVID per domain, initialized at the target for the initial
    // frequency (in secure mode this already includes the worst-case
    // guardband for every core).
    // Rails come up already settled at the initial operating point
    // (computeDomainTarget only needs coreState_ and the models).
    int domains = cfg_.perCoreVr ? hooks_.numCores() : 1;
    for (int d = 0; d < domains; ++d) {
        vrs_.push_back(std::make_unique<VoltageRegulator>(
            eq_, cfg_.vr, computeDomainTarget(d),
            "vr" + std::to_string(d), &rng_));
        svids_.push_back(std::make_unique<Svid>(eq_, *vrs_.back()));
    }

    powerLimiter_ = std::make_unique<PowerLimiter>(
        ticker_, cfg_.powerLimit, cfg_.pstate.binsGhz,
        [this] { return averagePowerSinceProbe(); },
        [this] { reevaluateFreq(); },
        [this] {
            // Highest bin whose projected power at the instantaneous
            // activity fits the budget.
            const auto &act = hooks_.coreActivity();
            double watts = cfg_.powerLimit.limitWatts;
            double ghz = powerModel_.binGhz(
                powerModel_.maxBinWithinPower(act, levelOf(), watts));
#ifndef NDEBUG
            auto levelled = withLevels(act, levelOf());
            const auto &bins = cfg_.pstate.binsGhz;
            double ref = bins.front();
            for (auto it = bins.rbegin(); it != bins.rend(); ++it)
                if (powerModel_.powerWatts(*it, levelled) <= watts) {
                    ref = *it;
                    break;
                }
            assert(sameBits(ghz, ref));
#endif
            return ghz;
        });
}

CentralPmu::~CentralPmu()
{
    if (cfg_.governor.evalInterval > 0)
        ticker_.remove(governorEval_);
}

int
CentralPmu::effectiveLevel(const CoreState &cs) const
{
    return std::max(cs.granted, cs.pending);
}

int
CentralPmu::maxLevelAllCores() const
{
    int lvl = 0;
    for (const auto &cs : coreState_)
        lvl = std::max(lvl, cs.licenseLevel);
    return lvl;
}

double
CentralPmu::computeDomainTarget(int domain) const
{
    // Base voltage plus the domain's guardbands, summed in core order
    // from the current bin's row.
    int cores = hooks_.numCores();
    double v = powerModel_.binBaseVolts(freqBin_);
    for (CoreId c = 0; c < cores; ++c)
        if (domainOf(c) == domain)
            v += powerModel_.binGbVolts(effectiveLevel(coreState_[c]),
                                        freqBin_);
#ifndef NDEBUG
    double ref = gbModel_.baseVolts(freqGhz_);
    for (CoreId c = 0; c < cores; ++c)
        if (domainOf(c) == domain)
            ref += gbModel_.gbVolts(effectiveLevel(coreState_[c]),
                                    freqGhz_);
    assert(sameBits(v, ref));
#endif
    return v;
}

std::size_t
CentralPmu::limitBin() const
{
    const auto &act = hooks_.coreActivity();
    assert(act.size() == coreState_.size());
    std::size_t bin = powerModel_.maxBin(act, levelOf(), cfg_.limits);
    assert(sameBits(powerModel_.binGhz(bin),
                    powerModel_.maxFreqGhz(withLevels(act, levelOf()),
                                           cfg_.limits,
                                           cfg_.pstate.binsGhz)));
    return bin;
}

double
CentralPmu::voltsDomain(int domain) const
{
    return vrs_.at(domain)->volts();
}

double
CentralPmu::iccAmps() const
{
    return powerModel_.iccAmps(freqGhz_, volts(), hooks_.coreActivity());
}

double
CentralPmu::powerWatts() const
{
    // One read of the (possibly ramping) rail for both factors.
    double v = volts();
    return v * powerModel_.iccAmps(freqGhz_, v, hooks_.coreActivity());
}

int
CentralPmu::grantedLevel(CoreId core) const
{
    return coreState_.at(core).granted;
}

void
CentralPmu::onPhiStart(CoreId core, int smt, InstClass cls)
{
    accrueEnergy();
    auto &cs = coreState_.at(core);
    int lvl = traits(cls).guardbandLevel;
    if (isPhi(cls)) {
        cs.lastPhi = eq_.now();
        cs.licenseLevel = std::max(cs.licenseLevel, lvl);
        scheduleDecay(core);
    }
    // In secure mode the rail is pinned at the worst-case guardband, so
    // no transition / throttle — but the turbo license still reacts.
    if (!cfg_.secureMode && lvl > effectiveLevel(cs)) {
        ++voltageRequests_;
        cs.pending = lvl;
        if (!cs.throttledForV) {
            cs.throttledForV = true;
            hooks_.assertCoreThrottle(core, ThrottleReason::kVoltageRamp,
                                      smt);
        }
        submitUpTransition(core, lvl, domainOf(core));
    }
    reevaluateFreq();
}

void
CentralPmu::submitUpTransition(CoreId core, int lvl, int domain)
{
    double target = computeDomainTarget(domain);
    svids_[domain]->submit(
        target, /*is_increase=*/true, [this, core, lvl, domain] {
            auto &cs = coreState_.at(core);
            cs.granted = std::max(cs.granted, lvl);
            if (cs.pending <= cs.granted)
                cs.pending = cs.granted;
            if (svids_[domain]->upTransitionsInFlight() == 0)
                releaseDomainThrottles(domain);
        });
}

void
CentralPmu::releaseDomainThrottles(int domain)
{
    for (CoreId c = 0; c < hooks_.numCores(); ++c) {
        if (domainOf(c) != domain)
            continue;
        auto &cs = coreState_[c];
        if (cs.throttledForV) {
            cs.throttledForV = false;
            hooks_.deassertCoreThrottle(c, ThrottleReason::kVoltageRamp);
        }
    }
}

void
CentralPmu::onKernelEnd(CoreId core, int smt, InstClass cls)
{
    (void)smt;
    auto &cs = coreState_.at(core);
    if (isPhi(cls)) {
        cs.lastPhi = eq_.now();
        scheduleDecay(core);
    }
}

void
CentralPmu::scheduleDecay(CoreId core)
{
    auto &cs = coreState_.at(core);
    // lastPhi only moves forward, so a pending check always fires no
    // later than the current deadline; decayCheck() re-checks and
    // re-arms. Extending the hysteresis window on every PHI is
    // therefore free — no deschedule/schedule pair per PHI.
    Time when = std::max(eq_.now() + fromMicroseconds(1),
                         cs.lastPhi + cfg_.resetTime);
    cs.decay.arm(eq_, when, [this, core] { decayCheck(core); });
}

void
CentralPmu::decayCheck(CoreId core)
{
    auto &cs = coreState_.at(core);
    cs.decay.fired();
    if (eq_.now() < cs.lastPhi + cfg_.resetTime) {
        scheduleDecay(core);
        return;
    }
    // A long-running PHI kernel keeps the guardband alive even though its
    // start stamp has aged past the reset-time.
    if (hooks_.coreActivity().at(core).activeGbLevel > 0) {
        cs.lastPhi = eq_.now();
        scheduleDecay(core);
        return;
    }
    if (cs.throttledForV) {
        // An up-transition is still in flight; retry one reset-time later.
        scheduleDecay(core);
        return;
    }
    bool license_held = cs.licenseLevel > 0;
    cs.licenseLevel = 0;
    if (cfg_.secureMode || (cs.granted == 0 && cs.pending == 0)) {
        if (license_held)
            reevaluateFreq(); // license relaxed
        return;
    }
    accrueEnergy();
    cs.granted = 0;
    cs.pending = 0;
    int domain = domainOf(core);
    svids_[domain]->submit(computeDomainTarget(domain),
                           /*is_increase=*/false);
    reevaluateFreq(); // license may have relaxed
}

void
CentralPmu::onActivityChanged()
{
    accrueEnergy();
    reevaluateFreq();
}

void
CentralPmu::writeGovernor(GovernorPolicy policy, double userspace_ghz)
{
    eq_.scheduleIn(governor_.applyLatency(),
                   [this, policy, userspace_ghz] {
                       governor_.setPolicy(policy);
                       governor_.setUserspaceGhz(userspace_ghz);
                       reevaluateFreq();
                   });
}

void
CentralPmu::reevaluateFreq()
{
    if (pstateInFlight_)
        return;
    const std::vector<double> &bins = cfg_.pstate.binsGhz;
    double gov = governor_.requestGhz(cfg_.pstate.minGhz, bins.back());
    double cap = powerLimiter_->capGhz();
    int license = licenseForGbLevel(maxLevelAllCores());
    double license_cap = cfg_.pstate.licenseMaxGhz[license];

    // Bins ascend, so the lower index is the lower frequency.
    std::size_t nolicense_bin =
        std::min(binIndexAtOrBelow(std::min(gov, cap), bins), limitBin());
    std::size_t desired_bin =
        std::min(nolicense_bin, binIndexAtOrBelow(license_cap, bins));
    double nolicense = bins[nolicense_bin];
    double desired = bins[desired_bin];

    if (desired < freqGhz_ - kGhzEps) {
        if (upclockEvent_ != EventQueue::kInvalidEvent) {
            eq_.deschedule(upclockEvent_);
            upclockEvent_ = EventQueue::kInvalidEvent;
        }
        // Remember whether the license was the (strictly) binding
        // constraint: its relaxation is slow (milliseconds).
        licenseCausedDownclock_ = desired < nolicense - kGhzEps;
        startPstateTransition(desired_bin);
    } else if (desired > freqGhz_ + kGhzEps) {
        scheduleUpclock();
    }
}

void
CentralPmu::startPstateTransition(std::size_t target_bin)
{
    assert(!pstateInFlight_);
    pstateInFlight_ = true;
    pstateDoneAt_ = eq_.now() + cfg_.pstate.transitionLatency;
    ++pstateCount_;
    for (CoreId c = 0; c < hooks_.numCores(); ++c)
        hooks_.assertCoreThrottle(c, ThrottleReason::kPstate, 0);
    auto cb = [this, target_bin] {
        accrueEnergy();
        hooks_.beforeFreqChange();
        freqGhz_ = cfg_.pstate.binsGhz[target_bin];
        freqBin_ = target_bin;
        for (CoreId c = 0; c < hooks_.numCores(); ++c)
            hooks_.deassertCoreThrottle(c, ThrottleReason::kPstate);
        pstateInFlight_ = false;
        for (int d = 0; d < numDomains(); ++d) {
            double target = computeDomainTarget(d);
            svids_[d]->submit(target,
                              target > vrs_[d]->volts() + 1e-9);
        }
        reevaluateFreq();
    };
    // One event per P-state transition; transitions dominate throttled runs.
    eq_.scheduleInChecked(cfg_.pstate.transitionLatency, std::move(cb));
}

void
CentralPmu::scheduleUpclock()
{
    if (upclockEvent_ != EventQueue::kInvalidEvent)
        return;
    // A downclock that was license-caused relaxes only after the slow
    // license-release delay (what TurboCC modulates); other upclocks
    // (governor, power-cap) apply after a short settling delay.
    Time delay = licenseCausedDownclock_
                     ? cfg_.pstate.licenseReleaseDelay
                     : cfg_.upclockDelay;
    upclockEvent_ = eq_.scheduleIn(delay, [this] { upclockFired(); });
}

void
CentralPmu::upclockFired()
{
    upclockEvent_ = EventQueue::kInvalidEvent;
    if (pstateInFlight_)
        return;
    // Recompute; conditions may have changed while waiting.
    const std::vector<double> &bins = cfg_.pstate.binsGhz;
    double gov = governor_.requestGhz(cfg_.pstate.minGhz, bins.back());
    double cap = powerLimiter_->capGhz();
    int license = licenseForGbLevel(maxLevelAllCores());
    double desired = std::min({gov, cap,
                               cfg_.pstate.licenseMaxGhz[license]});
    std::size_t desired_bin =
        std::min(binIndexAtOrBelow(desired, bins), limitBin());
    if (bins[desired_bin] > freqGhz_ + kGhzEps) {
        licenseCausedDownclock_ = false;
        startPstateTransition(desired_bin);
    }
}

void
CentralPmu::saveState(state::SaveContext &ctx) const
{
    if (pstateInFlight_)
        throw state::ArchiveError("CentralPmu: snapshot while a P-state "
                                  "transition is in flight — quiesce "
                                  "first");
    state::ArchiveWriter &w = ctx.w();
    w.putF64(freqGhz_);
    w.putBool(licenseCausedDownclock_);
    w.putU64(pstateCount_);
    w.putU64(voltageRequests_);
    w.putU64(energyMark_);
    w.putF64(energyJoules_);
    w.putU64(probeMark_);
    w.putF64(probeEnergyJoules_);
    w.putU8(static_cast<std::uint8_t>(governor_.policy()));
    w.putF64(governor_.userspaceGhz());
    ctx.putEvent(upclockEvent_);
    w.putU32(static_cast<std::uint32_t>(coreState_.size()));
    for (const CoreState &cs : coreState_) {
        w.putI32(cs.granted);
        w.putI32(cs.pending);
        w.putI32(cs.licenseLevel);
        w.putBool(cs.throttledForV);
        w.putU64(cs.lastPhi);
        ctx.putEvent(cs.decay.id());
    }
    w.putU32(static_cast<std::uint32_t>(svids_.size()));
    for (const auto &svid : svids_)
        svid->saveState(ctx);
    powerLimiter_->saveState(ctx);
}

void
CentralPmu::restoreState(state::SectionReader &r,
                         state::RestoreContext &ctx)
{
    freqGhz_ = r.getF64();
    // The archive carries its own config, so its frequency is one of
    // these bins exactly; anything else is a corrupt archive.
    freqBin_ = binIndexAtOrBelow(freqGhz_, cfg_.pstate.binsGhz);
    if (cfg_.pstate.binsGhz[freqBin_] != freqGhz_)
        throw state::ArchiveError(
            "CentralPmu: restored frequency is not a P-state bin");
    pstateInFlight_ = false;
    licenseCausedDownclock_ = r.getBool();
    pstateCount_ = r.getU64();
    voltageRequests_ = r.getU64();
    energyMark_ = r.getU64();
    energyJoules_ = r.getF64();
    probeMark_ = r.getU64();
    probeEnergyJoules_ = r.getF64();
    governor_.setPolicy(static_cast<GovernorPolicy>(r.getU8()));
    governor_.setUserspaceGhz(r.getF64());
    upclockEvent_ = EventQueue::kInvalidEvent;
    ctx.getEvent(r, [this](EventQueue &eq, Time when, int priority) {
        upclockEvent_ =
            eq.schedule(when, [this] { upclockFired(); }, priority);
    });
    if (r.getU32() != coreState_.size())
        throw state::ArchiveError("CentralPmu: core count mismatch");
    for (std::size_t c = 0; c < coreState_.size(); ++c) {
        CoreState &cs = coreState_[c];
        cs.granted = r.getI32();
        cs.pending = r.getI32();
        cs.licenseLevel = r.getI32();
        cs.throttledForV = r.getBool();
        cs.lastPhi = r.getU64();
        cs.decay = CoalescedTimer{};
        CoreId core = static_cast<CoreId>(c);
        ctx.getEvent(r, [this, core](EventQueue &eq, Time when,
                                     int priority) {
            coreState_[core].decay.adopt(eq.schedule(
                when, [this, core] { decayCheck(core); }, priority));
        });
    }
    if (r.getU32() != svids_.size())
        throw state::ArchiveError("CentralPmu: VR domain count mismatch");
    for (auto &svid : svids_)
        svid->restoreState(r, ctx);
    powerLimiter_->restoreState(r);
}

Time
CentralPmu::nextInterestingTime() const
{
    Time best = kTimeNever;
    if (pstateInFlight_)
        best = std::min(best, pstateDoneAt_);
    Time when;
    std::int32_t prio;
    std::uint64_t seq;
    if (upclockEvent_ != EventQueue::kInvalidEvent &&
        eq_.pendingInfo(upclockEvent_, when, prio, seq))
        best = std::min(best, when);
    for (const CoreState &cs : coreState_)
        if (cs.decay.id() != EventQueue::kInvalidEvent &&
            eq_.pendingInfo(cs.decay.id(), when, prio, seq))
            best = std::min(best, when);
    for (const auto &svid : svids_)
        best = std::min(best, svid->nextInterestingTime());
    return best;
}

void
CentralPmu::accrueEnergy()
{
    Time now = eq_.now();
    if (now <= energyMark_) {
        energyMark_ = now;
        return;
    }
    double watts = powerWatts();
    energyJoules_ += watts * toSeconds(now - energyMark_);
    energyMark_ = now;
}

double
CentralPmu::averagePowerSinceProbe()
{
    accrueEnergy();
    Time now = eq_.now();
    double joules = energyJoules_ - probeEnergyJoules_;
    double seconds = toSeconds(now - probeMark_);
    probeMark_ = now;
    probeEnergyJoules_ = energyJoules_;
    return seconds > 0.0 ? joules / seconds : 0.0;
}

} // namespace ich
