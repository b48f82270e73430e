/**
 * @file
 * Snapshot/restore determinism tests: a simulation restored from a
 * quiesce-point snapshot must continue byte-identically to the
 * simulation it was saved from — records, counters, PMU stats, rail
 * voltage, frequency, temperature and event accounting — for both the
 * desktop (Coffee Lake) and server (Skylake-SP) presets. Plus the
 * failure modes: snapshotting mid-program, untracked events, and
 * corrupt archives must raise clean errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "io/codec.hh"
#include "state/state.hh"

namespace ich
{
namespace
{

/** Warm-up: PHI bursts on every core, run to completion, then settle. */
void
warmUp(Simulation &sim)
{
    Chip &chip = sim.chip();
    for (int c = 0; c < chip.coreCount(); ++c) {
        Program p;
        p.loop(InstClass::k256Heavy, 3000, 100);
        p.idle(fromMicroseconds(40));
        p.loop(InstClass::k256Light, 1500, 100);
        HwThread &thr = chip.core(c).thread(0);
        thr.setProgram(std::move(p));
        thr.start();
    }
    sim.run(fromSeconds(1.0));
    state::quiesce(sim);
}

/**
 * Continuation phase: drive fresh PHI work (plus the throttling and
 * decay machinery it provokes) and render everything observable into a
 * string. %a formatting keeps doubles bit-exact, so two signatures are
 * equal iff the runs were byte-identical.
 */
std::string
continuationSignature(Simulation &sim, Time duration)
{
    Chip &chip = sim.chip();
    for (int c = 0; c < chip.coreCount(); ++c) {
        Program p;
        p.mark(100 + c);
        p.loop(InstClass::k256Heavy, 2000, 100);
        p.idle(fromMicroseconds(25));
        p.loopChunked(InstClass::kScalar64, 4000, 500, 200 + c, 100);
        HwThread &thr = chip.core(c).thread(0);
        thr.setProgram(std::move(p));
        thr.start();
    }
    sim.runFor(duration);

    std::string sig;
    char buf[256];
    auto add = [&sig, &buf](int n) {
        sig.append(buf, static_cast<std::size_t>(n));
    };
    add(std::snprintf(buf, sizeof buf,
                      "now=%llu executed=%llu pending=%zu\n",
                      static_cast<unsigned long long>(sim.eq().now()),
                      static_cast<unsigned long long>(
                          sim.eq().executedEvents()),
                      sim.eq().size()));
    add(std::snprintf(buf, sizeof buf,
                      "freq=%a volts=%a icc=%a tj=%a\n", chip.freqGhz(),
                      chip.vccVolts(), chip.iccAmps(), chip.tjCelsius()));
    const CentralPmu &pmu = chip.pmu();
    add(std::snprintf(buf, sizeof buf, "pstates=%llu vreqs=%llu\n",
                      static_cast<unsigned long long>(
                          pmu.pstateTransitions()),
                      static_cast<unsigned long long>(
                          pmu.voltageRequests())));
    for (int c = 0; c < chip.coreCount(); ++c) {
        const Core &core = chip.core(c);
        add(std::snprintf(buf, sizeof buf, "core%d asserts=%llu gb=%d\n",
                          c,
                          static_cast<unsigned long long>(
                              core.throttle().assertCount()),
                          pmu.grantedLevel(c)));
        for (int t = 0; t < core.numThreads(); ++t) {
            const HwThread &thr = core.thread(t);
            const PerfCounters &pc = thr.counters();
            add(std::snprintf(
                buf, sizeof buf, " t%d clk=%llu inst=%llu idq=%llu\n", t,
                static_cast<unsigned long long>(pc.clkUnhalted()),
                static_cast<unsigned long long>(pc.instRetired()),
                static_cast<unsigned long long>(
                    pc.idqUopsNotDelivered())));
            for (const Record &rec : thr.records())
                add(std::snprintf(
                    buf, sizeof buf, " rec %d %llu %llu %llu\n", rec.tag,
                    static_cast<unsigned long long>(chip.tscAt(rec.time)),
                    static_cast<unsigned long long>(rec.time),
                    static_cast<unsigned long long>(
                        rec.iterationsDone)));
        }
    }
    return sig;
}

void
expectByteIdenticalRestore(ChipConfig cfg, std::uint64_t seed)
{
    // A nonzero command jitter makes the PDN consume random numbers, so
    // this also proves the Rng stream restores mid-sequence.
    cfg.pmu.vr.commandJitter = fromNanoseconds(100);

    Simulation original(cfg, seed);
    warmUp(original);
    state::Buffer snap = state::snapshot(original);

    std::unique_ptr<Simulation> restored = state::restore(snap);
    ASSERT_EQ(restored->eq().now(), original.eq().now());
    ASSERT_EQ(restored->eq().size(), original.eq().size());

    std::string sig_original =
        continuationSignature(original, fromMilliseconds(20));
    std::string sig_restored =
        continuationSignature(*restored, fromMilliseconds(20));
    EXPECT_EQ(sig_original, sig_restored);
}

TEST(Snapshot, DesktopPresetRestoresByteIdentically)
{
    expectByteIdenticalRestore(presets::coffeeLake(), 42);
}

TEST(Snapshot, ServerPresetRestoresByteIdentically)
{
    expectByteIdenticalRestore(presets::skylakeServer(), 1234);
}

TEST(Snapshot, PinnedFrequencyPresetRestoresByteIdentically)
{
    ChipConfig cfg = presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 1.4;
    expectByteIdenticalRestore(cfg, 7);
}

TEST(Snapshot, RestoredFrequencyPricesTheRailFromItsOwnBin)
{
    // Rail targets are priced from the current P-state bin's row, so a
    // restored frequency must bring its bin along. The original moves
    // off the config's starting frequency before the snapshot; after
    // restore, a PHI's up-transition target must match the original's
    // bit for bit (a rail priced at the starting bin would not).
    ChipConfig cfg = presets::coffeeLake();
    cfg.pmu.vr.commandJitter = 0;
    Simulation original(cfg, 3);
    double start_ghz = original.chip().freqGhz();
    original.chip().pmu().writeGovernor(GovernorPolicy::kUserspace, 2.0);
    original.runFor(fromMilliseconds(5));
    state::quiesce(original);
    ASSERT_DOUBLE_EQ(original.chip().freqGhz(), 2.0);
    ASSERT_NE(start_ghz, 2.0);
    auto restored = state::restore(state::snapshot(original));
    ASSERT_EQ(restored->chip().freqGhz(), original.chip().freqGhz());

    for (Simulation *sim : {&original, restored.get()}) {
        Program p;
        p.loop(InstClass::k256Heavy, 200000, 100);
        sim->chip().core(0).thread(0).setProgram(std::move(p));
        sim->chip().core(0).thread(0).start();
        sim->runFor(fromMicroseconds(100));
    }
    ASSERT_EQ(original.chip().pmu().grantedLevel(0), 3);
    EXPECT_EQ(restored->chip().pmu().grantedLevel(0), 3);
    EXPECT_DOUBLE_EQ(restored->chip().freqGhz(), 2.0);
    double a = original.chip().vccVolts();
    double b = restored->chip().vccVolts();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << a << " vs " << b;
}

TEST(Snapshot, OffBinRestoredFrequencyIsRejected)
{
    // The archive carries its own bins, so a frequency that is not
    // exactly one of them means a corrupt archive. Nudge the PMU
    // section's first field (the frequency) off its bin and re-seal
    // the CRC, so only the PMU's own check can catch it.
    Simulation sim(presets::coffeeLake(), 3);
    state::quiesce(sim);
    state::Buffer snap = state::snapshot(sim);
    const std::uint8_t name[] = {3, 0, 0, 0, 'p', 'm', 'u'};
    auto it = std::search(snap.begin(), snap.end(), std::begin(name),
                          std::end(name));
    ASSERT_NE(it, snap.end());
    // Skip the section name and its u32 body length; then the f64 tag.
    std::size_t at = static_cast<std::size_t>(it - snap.begin()) +
                     sizeof name + 4;
    ASSERT_EQ(snap[at], 6); // kTagF64
    double ghz = sim.chip().freqGhz();
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= std::uint64_t{snap[at + 1 + i]} << (8 * i);
    ASSERT_EQ(std::memcmp(&bits, &ghz, sizeof bits), 0);
    double off = std::nextafter(ghz, 10.0);
    std::memcpy(&bits, &off, sizeof bits);
    for (int i = 0; i < 8; ++i)
        snap[at + 1 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
    // Header: u32 magic, u32 version, u64 payload length, u32 crc.
    std::uint32_t crc = state::crc32(snap.data() + 20, snap.size() - 20);
    for (int i = 0; i < 4; ++i)
        snap[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    try {
        state::restore(snap);
        FAIL() << "restored an off-bin frequency";
    } catch (const state::ArchiveError &e) {
        EXPECT_NE(std::string(e.what()).find("not a P-state bin"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Quiesced Cannon Lake simulation holding mark records and chunk
 * records: a throttled chunked PHI loop between two marks on SMT 0, a
 * chunked 64b loop (the SMT receiver's shape) on SMT 1.
 */
std::unique_ptr<Simulation>
recordHoldingSimulation()
{
    auto sim = std::make_unique<Simulation>(presets::cannonLake(), 13);
    Chip &chip = sim->chip();
    Program p0;
    p0.mark(0x5A5A);
    p0.loopChunked(InstClass::k256Heavy, 3000, 10, 2);
    p0.mark(3);
    Program p1;
    p1.loopChunked(InstClass::kScalar64, 20000, 250, 4, 20);
    chip.core(0).thread(0).setProgram(std::move(p0));
    chip.core(0).thread(1).setProgram(std::move(p1));
    chip.core(0).thread(1).start();
    chip.core(0).thread(0).start();
    sim->run(fromSeconds(1.0));
    state::quiesce(*sim);
    return sim;
}

TEST(Snapshot, RecordArchiveBytesArePinned)
{
    // Records keep their archive layout (tag, TSC, time, iterations),
    // so the bytes of a snapshot holding both record kinds are pinned.
    std::unique_ptr<Simulation> sim = recordHoldingSimulation();
    const Chip &chip = sim->chip();
    EXPECT_EQ(chip.core(0).thread(0).records().size(), 302u);
    EXPECT_EQ(chip.core(0).thread(1).records().size(), 80u);
    state::Buffer snap = state::snapshot(*sim);
    EXPECT_EQ(snap.size(), 19959u);
    EXPECT_EQ(io::fnv1a(snap.data(), snap.size(), io::kFnv1aSeed),
              0x194b21dd45eaaee2ULL);
}

TEST(Snapshot, RecordTscDisagreeingWithItsTimeIsRejected)
{
    // A record's archived TSC must be tscAt() of its time (a Record
    // stores only the time), so a disagreeing one means a corrupt
    // archive. Find the 0x5A5A mark (i32 tag, then the u64 TSC), bump
    // the TSC by one and re-seal the CRC, so only the thread's own
    // check can catch it.
    std::unique_ptr<Simulation> sim = recordHoldingSimulation();
    state::Buffer snap = state::snapshot(*sim);
    const std::uint8_t mark[] = {5, 0x5A, 0x5A, 0, 0, 4}; // kTagI32, kTagU64
    auto it = std::search(snap.begin(), snap.end(), std::begin(mark),
                          std::end(mark));
    ASSERT_NE(it, snap.end());
    std::size_t at = static_cast<std::size_t>(it - snap.begin()) +
                     sizeof mark;
    std::uint64_t tsc = 0;
    for (int i = 0; i < 8; ++i)
        tsc |= std::uint64_t{snap[at + i]} << (8 * i);
    const Record &rec = sim->chip().core(0).thread(0).records().front();
    ASSERT_EQ(rec.tag, 0x5A5A);
    ASSERT_EQ(tsc, sim->chip().tscAt(rec.time));
    ++tsc;
    for (int i = 0; i < 8; ++i)
        snap[at + i] = static_cast<std::uint8_t>(tsc >> (8 * i));
    // Header: u32 magic, u32 version, u64 payload length, u32 crc.
    std::uint32_t crc = state::crc32(snap.data() + 20, snap.size() - 20);
    for (int i = 0; i < 4; ++i)
        snap[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    try {
        state::restore(snap);
        FAIL() << "restored a record whose TSC disagrees with its time";
    } catch (const state::ArchiveError &e) {
        EXPECT_NE(std::string(e.what()).find("not tscAt("),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, SnapshotOfRestoredSimulationAlsoRestores)
{
    // Snapshot chains: warm -> snap -> restore -> run -> quiesce ->
    // snap again; the second-generation restore must still track.
    Simulation sim(presets::coffeeLake(), 5);
    warmUp(sim);
    auto gen1 = state::restore(state::snapshot(sim));
    std::string sig1 = continuationSignature(*gen1, fromMilliseconds(5));
    state::quiesce(*gen1);
    auto gen2 = state::restore(state::snapshot(*gen1));
    EXPECT_EQ(gen2->eq().now(), gen1->eq().now());
    // Different phases, so sig1 != sig2 is expected; what matters is
    // that the second generation quiesced, snapshotted and restored
    // without tripping any census/consistency check — and still runs.
    std::string sig2 = continuationSignature(*gen2, fromMilliseconds(5));
    EXPECT_NE(sig2, sig1);
}

TEST(Snapshot, MidProgramSnapshotThrows)
{
    Simulation sim(presets::coffeeLake(), 9);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loop(InstClass::k256Heavy, 2'000'000, 100);
    thr.setProgram(std::move(p));
    thr.start();
    sim.runFor(fromMicroseconds(50));
    EXPECT_FALSE(state::isQuiesced(sim));
    EXPECT_THROW(state::snapshot(sim), std::runtime_error);
}

TEST(Snapshot, UntrackedEventFailsTheCensus)
{
    Simulation sim(presets::coffeeLake(), 9);
    warmUp(sim);
    // An anonymous event (like a NoiseInjector or Daq would schedule)
    // has no owner to re-arm it: the census must reject the snapshot.
    sim.eq().scheduleIn(fromMicroseconds(5), [] {});
    try {
        state::snapshot(sim);
        FAIL() << "census accepted an untracked event";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("tracked"),
                  std::string::npos);
    }
}

TEST(Snapshot, QuiesceTimesOutWithReason)
{
    Simulation sim(presets::coffeeLake(), 9);
    HwThread &thr = sim.chip().core(0).thread(0);
    Program p;
    p.loop(InstClass::kScalar64, 50'000'000, 100); // ~seconds of work
    thr.setProgram(std::move(p));
    thr.start();
    try {
        state::quiesce(sim, fromMicroseconds(100));
        FAIL() << "quiesce should have timed out";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("executing"),
                  std::string::npos);
    }
}

TEST(Snapshot, CorruptSnapshotsFailCleanlyInRestore)
{
    Simulation sim(presets::coffeeLake(), 11);
    warmUp(sim);
    state::Buffer snap = state::snapshot(sim);

    // Truncations at a spread of lengths.
    for (std::size_t len : {std::size_t{0}, std::size_t{10},
                            snap.size() / 2, snap.size() - 1}) {
        state::Buffer cut(snap.begin(), snap.begin() + len);
        EXPECT_THROW(state::restore(cut), state::ArchiveError);
    }
    // Payload bit-rot.
    state::Buffer rot = snap;
    rot[rot.size() / 2] ^= 0x40;
    EXPECT_THROW(state::restore(rot), state::ArchiveError);
    // Version skew.
    state::Buffer ver = snap;
    ver[4] ^= 0x02;
    EXPECT_THROW(state::restore(ver), state::ArchiveError);
    // The pristine buffer still restores afterwards.
    EXPECT_NO_THROW(state::restore(snap));
}

TEST(Snapshot, SnapshotFileRoundTrip)
{
    std::string path = ::testing::TempDir() + "sim_roundtrip.snap";
    Simulation sim(presets::coffeeLake(), 21);
    warmUp(sim);
    state::snapshotToFile(sim, path);
    auto restored = state::restoreFromFile(path);
    EXPECT_EQ(continuationSignature(sim, fromMilliseconds(10)),
              continuationSignature(*restored, fromMilliseconds(10)));
    std::remove(path.c_str());
}

TEST(Snapshot, RestoredRngContinuesTheStream)
{
    ChipConfig cfg = presets::coffeeLake();
    Simulation sim(cfg, 77);
    warmUp(sim);
    auto restored = state::restore(state::snapshot(sim));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(sim.rng().uniformInt(0, 1u << 30),
                  restored->rng().uniformInt(0, 1u << 30));
}

} // namespace
} // namespace ich
