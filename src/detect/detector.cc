#include "detect/detector.hh"

#include <cassert>
#include <cstring>

#include "chip/chip.hh"
#include "detect/cusum.hh"
#include "detect/duty.hh"
#include "detect/sketch.hh"
#include "measure/daq.hh"
#include "state/archive.hh"
#include "state/snapshot.hh"

namespace ich
{
namespace detect
{

void
Detector::saveState(state::SaveContext &ctx) const
{
    state::ArchiveWriter &w = ctx.w();
    w.putU64(samples_);
    w.putU64(alarms_);
    w.putU64(firstAlarm_);
    w.putF64(peakScore_);
    w.putBool(wasAbove_);
}

void
Detector::restoreState(state::SectionReader &r)
{
    samples_ = r.getU64();
    alarms_ = r.getU64();
    firstAlarm_ = r.getU64();
    peakScore_ = r.getF64();
    wasAbove_ = r.getBool();
}

DetectorBank::DetectorBank(Chip &chip, const DetectConfig &cfg)
    : chip_(chip), cfg_(cfg)
{
    // Fixed delivery order: the same detector sequence every run.
    int cores = chip.coreCount();
    if (cfg_.enableSketch)
        detectors_.push_back(std::make_unique<SketchDetector>(
            cores, cfg_.sketch, cfg_.tickInterval));
    if (cfg_.enableCusum)
        detectors_.push_back(std::make_unique<CusumDetector>(cfg_.cusum));
    if (cfg_.enableDuty)
        detectors_.push_back(
            std::make_unique<DutyCycleDetector>(cores, cfg_.duty));
    obs_.asserts.assign(cores, 0);
    obs_.throttled.assign(cores, 0);
    chip.ticker().add(*this,
                      TickRate{cfg_.tickInterval, 0, cfg_.tickPriority},
                      Ticker::Ownership::kPersistent);
}

DetectorBank::~DetectorBank()
{
    chip_.ticker().remove(*this);
}

void
DetectorBank::readChip(Time now)
{
    obs_.now = now;
    std::uint64_t epoch = chip_.throttleEpoch();
    obs_.throttleChanged = epoch != throttleEpoch_;
    if (obs_.throttleChanged) {
        bool any = false;
        for (int c = 0; c < chip_.coreCount(); ++c) {
            const ThrottleUnit &tu = chip_.core(c).throttle();
            obs_.asserts[c] = tu.assertCount();
            obs_.throttled[c] = tu.throttled() ? 1 : 0;
            any = any || tu.throttled();
        }
        obs_.anyThrottled = any;
        throttleEpoch_ = epoch;
    }
    obs_.pstateTransitions = chip_.pmu().pstateTransitions();

    // Package power is a pure function of these three: a VR ramp moves
    // the volts, so it misses the memo without any ramp tracking.
    double volts = chip_.vccVolts();
    double ghz = chip_.pmu().freqGhz();
    std::uint64_t activity = chip_.activityEpoch();
    if (activity != memoActivityEpoch_ || volts != memoVolts_ ||
        ghz != memoGhz_) {
        obs_.powerWatts = chip_.powerWatts();
        memoVolts_ = volts;
        memoGhz_ = ghz;
        memoActivityEpoch_ = activity;
    }

#ifndef NDEBUG
    // Oracle: a throttle change that skipped the epoch, or a power
    // input the memo does not key on, shows up as a mismatch here.
    bool any = false;
    for (int c = 0; c < chip_.coreCount(); ++c) {
        const ThrottleUnit &tu = chip_.core(c).throttle();
        assert(obs_.asserts[c] == tu.assertCount());
        assert((obs_.throttled[c] != 0) == tu.throttled());
        any = any || tu.throttled();
    }
    assert(obs_.anyThrottled == any);
    double fresh = chip_.powerWatts();
    assert(std::memcmp(&fresh, &obs_.powerWatts, sizeof fresh) == 0);
#endif
}

void
DetectorBank::tick(Time now)
{
    readChip(now);
    for (auto &d : detectors_)
        d->deliver(obs_);
}

Detector *
DetectorBank::find(const std::string &name)
{
    for (auto &d : detectors_)
        if (name == d->name())
            return d.get();
    return nullptr;
}

exp::MetricMap
DetectorBank::metrics() const
{
    exp::MetricMap m;
    std::uint64_t samples = 0;
    for (const auto &d : detectors_) {
        std::string base = std::string("det_") + d->name();
        m[base + "_score"] = d->score();
        m[base + "_alarms"] = static_cast<double>(d->alarmCount());
        if (d->firstAlarmTime() != kNoAlarm)
            m[base + "_ttd_us"] = toMicroseconds(d->firstAlarmTime());
        samples = d->samples(); // same tick group: identical per detector
    }
    m["det_samples"] = static_cast<double>(samples);
    return m;
}

void
DetectorBank::addDaqChannels(Daq &daq) const
{
    for (const auto &d : detectors_) {
        Detector *dp = d.get();
        daq.addChannel(std::string("det_") + d->name() + "_stat",
                       [dp]() { return dp->statistic(); });
    }
}

void
DetectorBank::saveSections(state::ArchiveWriter &w,
                           state::SaveContext &ctx) const
{
    for (const auto &d : detectors_) {
        w.beginSection(std::string("detect.") + d->name());
        d->saveState(ctx);
        w.endSection();
    }
}

void
DetectorBank::restoreSections(state::ArchiveReader &ar,
                              state::RestoreContext &ctx)
{
    (void)ctx; // detectors own no events — ticks live in the Ticker
    for (auto &d : detectors_) {
        state::SectionReader r =
            ar.open(std::string("detect.") + d->name());
        d->restoreState(r);
        if (r.remaining() != 0)
            throw state::ArchiveError(
                std::string("detect.") + d->name() +
                ": trailing bytes after restore");
    }
}

} // namespace detect
} // namespace ich
