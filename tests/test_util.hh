/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef ICH_TESTS_TEST_UTIL_HH
#define ICH_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "channels/channel.hh"
#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "io/codec.hh"

namespace ich
{
namespace test
{

/** @p cfg pinned to a fixed frequency (the paper's PoC setup). */
inline ChipConfig
pinned(ChipConfig cfg, double freq_ghz)
{
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = freq_ghz;
    return cfg;
}

/** Cannon Lake pinned to a fixed frequency. */
inline ChipConfig
pinnedCannonLake(double freq_ghz = 1.4)
{
    return pinned(presets::cannonLake(), freq_ghz);
}

/**
 * A chip where power management never interferes with execution timing
 * (secure mode pins the guardband; no transitions, no throttling) —
 * for pure execution-model tests.
 */
inline ChipConfig
quietChip(double freq_ghz = 1.4, int smt = 2)
{
    ChipConfig cfg = pinnedCannonLake(freq_ghz);
    cfg.pmu.secureMode = true;
    cfg.pmu.vr.commandJitter = 0;
    cfg.core.smtThreads = smt;
    // Neutralize turbo licenses too: execution-model tests must see no
    // power-management interference at any pinned frequency.
    double top = cfg.pmu.pstate.binsGhz.back();
    cfg.pmu.pstate.licenseMaxGhz = {top, top, top};
    return cfg;
}

/** Expected unthrottled duration of a kernel at @p freq_ghz, in ps. */
inline Time
kernelPicos(const Kernel &k, double freq_ghz)
{
    return static_cast<Time>(k.totalCycles() * cyclePicos(freq_ghz));
}

/**
 * Measured duration (µs) of a probe loop of @p probe executed right
 * after a loop of @p prelude on core 0 / SMT 0 (the Fig. 10b setup).
 * The chip starts from baseline voltage.
 */
inline double
probeAfterUs(const ChipConfig &cfg, InstClass prelude, InstClass probe,
             std::uint64_t prelude_iters = 400,
             std::uint64_t probe_iters = 100, std::uint64_t seed = 1)
{
    Simulation sim(cfg, seed);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loop(prelude, prelude_iters, 100);
    p.mark(0);
    p.loop(probe, probe_iters, 100);
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    return toMicroseconds(recs.at(1).time - recs.at(0).time);
}

/**
 * Measured duration (µs) of a single loop of @p cls from baseline on
 * core 0 / SMT 0 (the Fig. 10a setup, one core).
 */
inline double
loopFromBaselineUs(const ChipConfig &cfg, InstClass cls,
                   std::uint64_t iters = 400, std::uint64_t seed = 1)
{
    Simulation sim(cfg, seed);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.mark(0);
    p.loop(cls, iters, 100);
    p.mark(1);
    thr.setProgram(std::move(p));
    thr.start();
    sim.run();
    const auto &recs = thr.records();
    return toMicroseconds(recs.at(1).time - recs.at(0).time);
}

/**
 * Throttling-period estimate (µs) for a loop of @p cls from baseline:
 * measured time minus unthrottled time. While throttled the loop still
 * progresses at 1/4 rate, so this equals 3/4 of the raw throttle window
 * — a fixed scale factor that preserves ordering and level separation.
 */
inline double
throttlePeriodUs(const ChipConfig &cfg, InstClass cls, double freq_ghz,
                 std::uint64_t iters = 400, std::uint64_t seed = 1)
{
    double measured = loopFromBaselineUs(cfg, cls, iters, seed);
    double nominal =
        toMicroseconds(kernelPicos(makeKernel(cls, iters, 100), freq_ghz));
    return measured - nominal;
}

/** FNV-1a of every record's (time, iterationsDone), in order. */
inline std::uint64_t
recordHash(const std::vector<Record> &recs,
           std::uint64_t h = io::kFnv1aSeed)
{
    for (const Record &rec : recs) {
        h = io::fnv1aU64(rec.time, h);
        h = io::fnv1aU64(rec.iterationsDone, h);
    }
    return h;
}

/** Bit-exact fingerprint of one channel transmit(). */
struct ChannelPins {
    /** recordHash() of the receiver thread, chained across every
     *  simulation the channel ran (calibration, then payload). */
    std::uint64_t records = io::kFnv1aSeed;
    /** FNV-1a of the payload run's tpUs doubles, as bits. */
    std::uint64_t tpUs = io::kFnv1aSeed;
    /** Records the receiver produced across those simulations. */
    std::size_t recordCount = 0;
};

/**
 * Transmit @p bits on @p ch and fingerprint the receiver on
 * (core @p rx_core, SMT @p rx_smt): pins the receiver's raw records,
 * not just the decoded symbols, so any drift in record timing shows.
 */
inline ChannelPins
channelPins(CovertChannel &ch, const BitVec &bits, CoreId rx_core,
            int rx_smt)
{
    ChannelPins pins;
    CovertChannel::SimHooks hooks;
    hooks.onFinish = [&pins, rx_core, rx_smt](Simulation &sim) {
        const auto &recs = sim.chip().core(rx_core).thread(rx_smt).records();
        pins.records = recordHash(recs, pins.records);
        pins.recordCount += recs.size();
    };
    ch.setSimHooks(std::move(hooks));
    TransmitResult res = ch.transmit(bits);
    for (double tp : res.tpUs)
        pins.tpUs = io::fnv1aU64(io::f64Bits(tp), pins.tpUs);
    return pins;
}

/** @p n deterministic pseudo-random payload bits (LCG, seed @p seed). */
inline BitVec
lcgBits(std::size_t n, std::uint32_t seed)
{
    BitVec bits;
    bits.reserve(n);
    std::uint32_t x = seed;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 1664525u + 1013904223u;
        bits.push_back(static_cast<std::uint8_t>(x >> 31));
    }
    return bits;
}

} // namespace test
} // namespace ich

#endif // ICH_TESTS_TEST_UTIL_HH
