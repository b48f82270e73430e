/**
 * @file
 * Tests for the multi-process sweep sharding subsystem (src/shard/):
 * the CRC-framed wire protocol must round-trip every message bit-exactly
 * and reject corruption loudly; the Maglev ring must balance warm keys
 * and move only a disabled worker's keys; and a sharded sweep must be
 * byte-identical to a serial in-process run — including when a worker
 * is killed -9 mid-sweep, and when the sweep resumes from a truncated
 * result store.
 *
 * This binary supplies its own main(): it doubles as the shard worker
 * (the coordinator fork/execs /proc/self/exe with --shard-worker), so
 * the scenario registry below is shared between the gtest process and
 * every spawned worker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "chip/presets.hh"
#include "chip/simulation.hh"
#include "exp/exp.hh"
#include "shard/shard.hh"
#include "state/chunkio.hh"
#include "state/state.hh"

namespace ich
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kWarmSeed = 0x5EEDu;

/** One shard message as it travels the pipe: a chunk frame. */
shard::Buffer
frameOf(shard::MsgType type, const shard::Buffer &payload)
{
    shard::Buffer f;
    state::appendChunkFrame(f, static_cast<std::uint32_t>(type), payload);
    return f;
}

// ------------------------------------------------------- test scenarios

/** Pure-arithmetic trial: cheap, deterministic, and seed-sensitive. */
exp::MetricMap
mathTrial(const exp::TrialContext &ctx)
{
    double x = ctx.point.get("x");
    double y = ctx.point.get("y");
    std::uint64_t h = ctx.seed;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    exp::MetricMap m;
    m["mix"] = static_cast<double>(h >> 11) * 0x1p-42 + x * y;
    m["sum"] = x + y + static_cast<double>(ctx.trial);
    return m;
}

exp::ScenarioSpec
mathSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "shard-math";
    spec.description = "arithmetic-only shard unit scenario";
    spec.axes = {
        exp::axis("x", {1.0, 2.0, 3.0, 4.0}),
        exp::axis("y", {0.5, 1.5, 2.5}),
    };
    spec.trials = 2;
    spec.baseSeed = 42;
    spec.run = mathTrial;
    return spec;
}

ChipConfig
chipFor(const std::string &label)
{
    ChipConfig cfg = label == "server" ? presets::skylakeServer()
                                       : presets::cannonLake();
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 1.4;
    return cfg;
}

/** The expensive part a warm snapshot amortizes: bursts + PDN settle. */
std::unique_ptr<Simulation>
warmChip(const std::string &label)
{
    auto sim = std::make_unique<Simulation>(chipFor(label), kWarmSeed);
    Program p;
    p.loop(InstClass::k256Heavy, 400, 100);
    HwThread &thr = sim->chip().core(0).thread(0);
    thr.setProgram(std::move(p));
    thr.start();
    sim->run(fromSeconds(0.2));
    state::quiesce(*sim);
    return sim;
}

/** Warm-forked probe trial: the SweepRunner contract, unchanged. */
exp::MetricMap
warmTrial(const exp::TrialContext &ctx)
{
    std::unique_ptr<Simulation> sim =
        ctx.warmSnapshot ? state::restore(*ctx.warmSnapshot)
                         : warmChip(ctx.point.label("chip"));
    sim->rng().seed(ctx.seed);

    std::uint64_t iters =
        static_cast<std::uint64_t>(ctx.point.get("probe_iters"));
    HwThread &thr = sim->chip().core(0).thread(0);
    Program p;
    p.mark(1);
    p.loop(InstClass::k256Heavy, iters, 100);
    p.mark(2);
    thr.setProgram(std::move(p));
    thr.start();
    sim->run(fromSeconds(0.5));

    const auto &recs = thr.records();
    exp::MetricMap m;
    m["probe_us"] = toMicroseconds(recs.back().time - recs.front().time);
    m["volts"] = sim->chip().vccVolts();
    return m;
}

/** Desktop + server presets sharing warm state per chip. */
exp::ScenarioSpec
warmSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "shard-warm";
    spec.description = "warm-snapshot shard unit scenario";
    spec.axes = {
        exp::axisLabeled("chip", {"desktop", "server"}),
        exp::axis("probe_iters", {200.0, 400.0, 600.0}),
    };
    spec.trials = 2;
    spec.baseSeed = 7;
    spec.run = warmTrial;
    spec.warmup = [](const exp::ParamPoint &pt) {
        auto sim = warmChip(pt.label("chip"));
        return state::snapshot(*sim);
    };
    spec.warmupKey = [](const exp::ParamPoint &pt) {
        return pt.label("chip");
    };
    return spec;
}

/** A trial that deterministically throws on one grid point. */
exp::ScenarioSpec
errorSpec()
{
    exp::ScenarioSpec spec;
    spec.name = "shard-error";
    spec.description = "deterministic trial failure";
    spec.axes = {exp::axis("x", {1.0, 2.0, 3.0, 4.0})};
    spec.trials = 1;
    spec.baseSeed = 5;
    spec.run = [](const exp::TrialContext &ctx) {
        if (ctx.point.get("x") == 3.0)
            throw std::runtime_error("injected trial failure at x=3");
        exp::MetricMap m;
        m["x2"] = ctx.point.get("x") * 2.0;
        return m;
    };
    return spec;
}

/** Shared by the gtest process and every --shard-worker re-exec. */
const exp::ScenarioRegistry &
testRegistry()
{
    static const exp::ScenarioRegistry reg = [] {
        exp::ScenarioRegistry r;
        r.add(mathSpec());
        r.add(warmSpec());
        r.add(errorSpec());
        return r;
    }();
    return reg;
}

// --------------------------------------------------------------- helpers

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string &name)
        : path(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

std::string
serialJson(const exp::ScenarioSpec &spec)
{
    exp::RunnerOptions opts;
    opts.jobs = 1;
    return exp::jsonReport(exp::SweepRunner(opts).run(spec), true);
}

shard::ShardOptions
shardOpts(const TempDir &scratch, int workers = 2)
{
    shard::ShardOptions opts;
    opts.workers = workers;
    opts.scratchDir = (scratch.path / "scratch").string();
    return opts;
}

// -------------------------------------------------------------- protocol

TEST(ShardProtocol, MessagesRoundTripThroughTheDecoder)
{
    shard::HelloMsg hello;
    hello.scenario = "shard-math";
    hello.baseSeed = 0xDEADBEEFCAFEull;
    hello.trialsPerPoint = 3;
    hello.numPoints = 12;
    hello.gridFp = 0x1234567890ABCDEFull;

    shard::ResultMsg result;
    result.pointIndex = 7;
    exp::TrialRecord rec;
    rec.pointIndex = 7;
    rec.trial = 1;
    rec.seed = 99;
    rec.metrics["x"] = 0.1 + 0.2;
    rec.metrics["y"] = -0.0;
    rec.metrics["z"] = 3.0e-310; // subnormal
    result.trials = {rec, rec};

    shard::SnapshotMsg snap;
    snap.key = "wb-250";
    snap.bytes = {0x00, 0xFF, 0x41, 0x7E};

    // One stream carrying every message type, fed to the incremental
    // decoder in awkward 7-byte chunks (pipe reads are arbitrary).
    shard::Buffer stream;
    auto append = [&stream](shard::MsgType t, const shard::Buffer &p) {
        shard::Buffer f = frameOf(t, p);
        stream.insert(stream.end(), f.begin(), f.end());
    };
    append(shard::MsgType::kHello, shard::encodeHello(hello));
    append(shard::MsgType::kHelloAck,
           shard::encodeHelloAck({4321, hello.gridFp}));
    append(shard::MsgType::kAssign, shard::encodeAssign({{11}}));
    append(shard::MsgType::kSnapshotPut, shard::encodeSnapshot(snap));
    append(shard::MsgType::kResult, shard::encodeResult(result));
    append(shard::MsgType::kHeartbeat, shard::encodeHeartbeat({5}));
    append(shard::MsgType::kShutdown, {});
    append(shard::MsgType::kWorkerError,
           shard::encodeError({"it broke"}));

    shard::FrameDecoder dec;
    std::vector<shard::Frame> frames;
    for (std::size_t i = 0; i < stream.size(); i += 7) {
        dec.feed(stream.data() + i, std::min<std::size_t>(7, stream.size() - i));
        shard::Frame f;
        while (dec.next(f))
            frames.push_back(f);
    }
    ASSERT_EQ(frames.size(), 8u);

    shard::HelloMsg h2 = shard::decodeHello(frames[0].payload);
    EXPECT_EQ(h2.scenario, hello.scenario);
    EXPECT_EQ(h2.baseSeed, hello.baseSeed);
    EXPECT_EQ(h2.trialsPerPoint, hello.trialsPerPoint);
    EXPECT_EQ(h2.numPoints, hello.numPoints);
    EXPECT_EQ(h2.gridFp, hello.gridFp);

    shard::HelloAckMsg a2 = shard::decodeHelloAck(frames[1].payload);
    EXPECT_EQ(a2.pid, 4321);
    EXPECT_EQ(a2.gridFp, hello.gridFp);

    shard::AssignMsg asg = shard::decodeAssign(frames[2].payload);
    ASSERT_EQ(asg.pointIndices.size(), 1u);
    EXPECT_EQ(asg.pointIndices[0], 11u);

    shard::SnapshotMsg s2 = shard::decodeSnapshot(frames[3].payload);
    EXPECT_EQ(s2.key, snap.key);
    EXPECT_EQ(s2.bytes, snap.bytes);

    shard::ResultMsg r2 = shard::decodeResult(frames[4].payload);
    EXPECT_EQ(r2.pointIndex, 7u);
    ASSERT_EQ(r2.trials.size(), 2u);
    const exp::MetricMap &m = r2.trials[0].metrics;
    EXPECT_EQ(r2.trials[0].seed, 99u);
    EXPECT_EQ(m.at("x"), 0.1 + 0.2);         // bit-exact, not approximate
    EXPECT_TRUE(std::signbit(m.at("y")));    // -0.0 survives
    EXPECT_EQ(m.at("z"), 3.0e-310);          // subnormal survives

    EXPECT_EQ(shard::decodeHeartbeat(frames[5].payload).pointIndex, 5u);
    EXPECT_EQ(frames[6].type, shard::MsgType::kShutdown);
    EXPECT_EQ(shard::decodeError(frames[7].payload).message, "it broke");
}

TEST(ShardProtocol, AssignBatchesRoundTrip)
{
    shard::AssignMsg m;
    m.pointIndices = {3, 0, 0xFFFFFFFFFFFFull, 7, 7};
    shard::AssignMsg back = shard::decodeAssign(shard::encodeAssign(m));
    EXPECT_EQ(back.pointIndices, m.pointIndices);

    shard::AssignMsg empty;
    EXPECT_TRUE(
        shard::decodeAssign(shard::encodeAssign(empty)).pointIndices
            .empty());
}

TEST(ShardProtocol, GarbledPayloadFailsTheCrc)
{
    shard::Buffer f =
        frameOf(shard::MsgType::kAssign, shard::encodeAssign({{3}}));
    f[state::kChunkFrameHeaderBytes] ^= 0x01; // flip one payload bit

    shard::FrameDecoder dec;
    dec.feed(f.data(), f.size());
    shard::Frame out;
    EXPECT_THROW(dec.next(out), shard::ProtocolError);
}

// The CRC covers the header too: a flipped type byte must not re-label
// an intact payload, and a shrunken length must not cut one short.
TEST(ShardProtocol, GarbledHeaderFailsTheCrc)
{
    const shard::Buffer good =
        frameOf(shard::MsgType::kAssign, shard::encodeAssign({{3}}));

    shard::Buffer relabelled = good;
    // type lives at bytes [4, 8): kAssign (3) -> kResult (6).
    relabelled[4] = static_cast<std::uint8_t>(shard::MsgType::kResult);

    shard::Buffer shrunk = good;
    // payloadLen lives at bytes [8, 12); drop the payload's last byte.
    ASSERT_GT(shrunk[8], 0);
    --shrunk[8];

    for (const shard::Buffer *f : {&relabelled, &shrunk}) {
        shard::FrameDecoder dec;
        dec.feed(f->data(), f->size());
        shard::Frame out;
        EXPECT_THROW(dec.next(out), shard::ProtocolError);

        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], f->data(), f->size()),
                  static_cast<ssize_t>(f->size()));
        ::close(fds[1]);
        EXPECT_THROW(shard::readFrame(fds[0]), shard::ProtocolError);
        ::close(fds[0]);
    }
}

TEST(ShardProtocol, BadMagicAndOversizedLengthAreRejected)
{
    shard::Buffer good =
        frameOf(shard::MsgType::kHeartbeat, shard::encodeHeartbeat({1}));

    shard::Buffer bad_magic = good;
    bad_magic[0] ^= 0xFF;
    {
        shard::FrameDecoder dec;
        dec.feed(bad_magic.data(), bad_magic.size());
        shard::Frame out;
        EXPECT_THROW(dec.next(out), shard::ProtocolError);
    }

    shard::Buffer oversized = good;
    // payloadLen lives at bytes [8, 12); make it absurd.
    for (int i = 8; i < 12; ++i)
        oversized[static_cast<std::size_t>(i)] = 0xFF;
    {
        shard::FrameDecoder dec;
        dec.feed(oversized.data(), oversized.size());
        shard::Frame out;
        EXPECT_THROW(dec.next(out), shard::ProtocolError);
    }
}

TEST(ShardProtocol, TruncatedStreamNeedsMoreBytesButReadFrameThrows)
{
    shard::Buffer f =
        frameOf(shard::MsgType::kAssign, shard::encodeAssign({{9}}));

    // The incremental decoder treats a partial frame as "not yet".
    shard::FrameDecoder dec;
    dec.feed(f.data(), f.size() - 3);
    shard::Frame out;
    EXPECT_FALSE(dec.next(out));

    // The blocking reader sees the same bytes end in EOF: loud error.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], f.data(), f.size() - 3),
              static_cast<ssize_t>(f.size() - 3));
    ::close(fds[1]);
    EXPECT_THROW(shard::readFrame(fds[0]), shard::ProtocolError);
    ::close(fds[0]);
}

TEST(ShardProtocol, TruncatedPayloadFieldsAreBoundsChecked)
{
    shard::Buffer payload = shard::encodeHello({});
    payload.resize(payload.size() / 2);
    EXPECT_THROW(shard::decodeHello(payload), shard::ProtocolError);
}

// -------------------------------------------------------------- hash ring

TEST(ShardHashRing, BalancesSlotsAcrossWorkers)
{
    shard::HashRing ring(4);
    std::vector<int> owned(4, 0);
    for (std::uint32_t b : ring.table())
        ++owned.at(b);
    for (int n : owned) {
        EXPECT_GE(n, 60) << "Maglev table should be near-even";
        EXPECT_LE(n, 95);
    }
}

TEST(ShardHashRing, LookupIsDeterministicAcrossInstances)
{
    shard::HashRing a(4), b(4);
    for (int i = 0; i < 64; ++i) {
        std::string key = "warm-key-" + std::to_string(i);
        EXPECT_EQ(a.lookup(key), b.lookup(key));
    }
}

TEST(ShardHashRing, DisableMovesOnlyTheDisabledWorkersKeys)
{
    shard::HashRing ring(4);
    std::vector<std::pair<std::string, std::size_t>> before;
    for (int i = 0; i < 200; ++i) {
        std::string key = "k" + std::to_string(i);
        before.emplace_back(key, ring.lookup(key));
    }
    ring.disable(2);
    EXPECT_EQ(ring.enabledCount(), 3u);
    // Maglev disruption is minimal, not zero: on a rebuild a few percent
    // of the surviving workers' slots may move too. What matters for the
    // warm caches is that the bulk of keys stay put.
    int kept = 0, moved = 0, orphaned = 0;
    for (const auto &[key, owner] : before) {
        std::size_t now = ring.lookup(key);
        EXPECT_NE(now, 2u);
        if (owner == 2)
            ++orphaned;
        else if (now == owner)
            ++kept;
        else
            ++moved;
    }
    EXPECT_GT(orphaned, 0) << "fixture should cover the disabled worker";
    EXPECT_LT(moved, (kept + moved) / 5)
        << "far too many surviving keys moved on a single disable";
}

TEST(ShardHashRing, DisablingTheLastWorkerThrows)
{
    shard::HashRing ring(2);
    ring.disable(0);
    EXPECT_THROW(ring.disable(1), std::logic_error);
}

// ------------------------------------------------------------ end to end

TEST(ShardSweep, ByteIdenticalToSerialRun)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_math");
    exp::SweepResult sharded =
        shard::runSharded(spec, shardOpts(dir));
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

// Batching is a pure framing optimization: several points per kAssign
// frame must produce the same bytes as one per frame (which in turn
// matches the serial run).
TEST(ShardSweep, FixedAssignBatchIsByteIdentical)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_batch");
    shard::ShardOptions opts = shardOpts(dir);
    opts.assignBatch = 4;
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

// A worker killed partway through a batch loses at most the unreported
// batch: reassignment + scratch scavenging still converge on the same
// bytes.
TEST(ShardSweep, SurvivesAWorkerKilledMidBatch)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_batch_kill");
    shard::ShardOptions opts = shardOpts(dir);
    opts.assignBatch = 3;
    opts.testKillWorker0AfterUnits = 2; // dies starting its batch's 2nd
    opts.maxUnitAttempts = 5;
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

// The streaming front end: sharded completion order feeding a
// StreamingAggregator must still render byte-identical to a serial
// materialized run.
TEST(ShardSweep, StreamingShardedRunIsByteIdenticalToSerial)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_stream");
    exp::MaterializeSink mat;
    exp::StreamingAggregator agg;
    exp::TeeSink tee({&mat, &agg});
    exp::StreamStats stats =
        shard::runShardedStreaming(spec, shardOpts(dir), tee);
    exp::SweepResult streamed = mat.take();
    streamed.aggregates = agg.aggregates();
    EXPECT_EQ(stats.points, streamed.points.size());
    EXPECT_EQ(exp::jsonReport(streamed, true), serialJson(spec));
}

TEST(ShardSweep, WarmSweepIsByteIdenticalAndCleansItsScratch)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-warm");
    TempDir dir("shard_warm");
    shard::ShardOptions opts = shardOpts(dir);
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
    // Clean exit removes the per-run scratch tree (and the scratch root
    // itself when nothing else lives there).
    EXPECT_FALSE(fs::exists(opts.scratchDir));
}

TEST(ShardSweep, MoreWorkersThanWarmKeysStillByteIdentical)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-warm");
    TempDir dir("shard_warm3");
    exp::SweepResult sharded =
        shard::runSharded(spec, shardOpts(dir, 3));
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

TEST(ShardSweep, SurvivesAWorkerKilledMidSweep)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_kill");
    shard::ShardOptions opts = shardOpts(dir);
    // Worker 0 raise(SIGKILL)s while starting its 2nd unit, in every
    // incarnation, until its spawn budget disables the slot. Each
    // incarnation completes one unit first, so attempts spread across
    // units — but give the retry budget slack anyway: this test is
    // about reassignment, not about the abort threshold.
    opts.testKillWorker0AfterUnits = 2;
    opts.maxUnitAttempts = 5;
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

TEST(ShardSweep, TrialExceptionAbortsTheSweep)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-error");
    TempDir dir("shard_error");
    EXPECT_THROW(shard::runSharded(spec, shardOpts(dir)),
                 std::runtime_error);
}

// Heartbeat liveness under batching: workers heartbeat at every point
// start (not once per batch), so a tight stall timeout must not reap a
// healthy worker that is quietly grinding through a large batch.
TEST(ShardSweep, BatchedHealthyWorkersBeatATightStallTimeout)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_liveness");
    shard::ShardOptions opts = shardOpts(dir);
    opts.assignBatch = 4;       // several points per frame
    opts.stallTimeoutMs = 2000; // 15x tighter than the default
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

// A live-but-wedged worker emits no EOF, so only the stall watchdog can
// reap it. The scripted hang wedges worker 0 at its first point start;
// the watchdog must kill it and the respawn/reassign machinery must
// still converge byte-identically.
TEST(ShardSweep, StallWatchdogReapsAHungWorker)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_hang");
    shard::ShardOptions opts = shardOpts(dir);
    opts.stallTimeoutMs = 300;
    opts.maxUnitAttempts = 6;
    // Each respawn re-arms the plan, so every incarnation of slot 0
    // hangs again until the spawn budget disables the slot.
    opts.testWorker0FaultSpec =
        "site=shard.point-start:op=point:occ=1:fault=hang";
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

// The classic lost window: a worker dies after syncing its scratch
// store but before reporting results. Scavenging must recover the
// synced points without recomputing them into different bytes.
TEST(ShardSweep, SurvivesACrashBetweenScratchSyncAndResult)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_postsync");
    shard::ShardOptions opts = shardOpts(dir);
    opts.maxUnitAttempts = 6;
    opts.testWorker0FaultSpec =
        "site=shard.post-sync:op=point:occ=1:fault=crash";
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

// A result frame torn mid-write must fail the coordinator-side CRC or
// framing check, never deliver a half-decoded record; the unit is
// reassigned and the sweep converges.
TEST(ShardSweep, SurvivesATornResultFrame)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-math");
    TempDir dir("shard_tornframe");
    shard::ShardOptions opts = shardOpts(dir);
    opts.maxUnitAttempts = 6;
    opts.testWorker0FaultSpec =
        "seed=17;site=shard.result-frame:op=point:occ=1:fault=torn";
    exp::SweepResult sharded = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(sharded, true), serialJson(spec));
}

TEST(ShardSweep, ResumesFromATruncatedStoreByteIdentically)
{
    const exp::ScenarioSpec &spec = *testRegistry().find("shard-warm");
    TempDir dir("shard_resume");
    shard::ShardOptions opts = shardOpts(dir);
    opts.resumeDir = (dir.path / "out").string();

    std::string uninterrupted = serialJson(spec);
    exp::SweepResult first = shard::runSharded(spec, opts);
    EXPECT_EQ(exp::jsonReport(first, true), uninterrupted);

    // Keep only two completed points, as if the coordinator died.
    std::string mpath = exp::resultStorePath(opts.resumeDir, spec.name);
    exp::ResumeManifest m;
    ASSERT_TRUE(exp::loadManifest(mpath, m));
    while (m.points.size() > 2)
        m.points.erase(std::prev(m.points.end()));
    exp::writeManifest(mpath, m);

    exp::SweepResult resumed = shard::runSharded(spec, opts);
    EXPECT_EQ(resumed.resumedPoints, 2u);
    EXPECT_EQ(exp::jsonReport(resumed, true), uninterrupted);
}

} // namespace
} // namespace ich

/**
 * gtest needs a custom main here: when the coordinator re-execs this
 * binary with --shard-worker, harnessSetup turns the process into a
 * protocol worker against the test registry and returns its exit code.
 */
int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--shard-worker") {
            ich::exp::CliOptions cli;
            int rc = ich::exp::harnessSetup(argc, argv,
                                            ich::testRegistry(), cli);
            return rc >= 0 ? rc : 1;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
