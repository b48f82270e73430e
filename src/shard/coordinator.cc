#include "shard/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exp/colstore.hh"
#include "exp/resume.hh"
#include "io/codec.hh"
#include "io/fileops.hh"
#include "shard/hash_ring.hh"
#include "shard/protocol.hh"
#include "state/archive.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace shard
{

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** Adaptive batching targets ~this much measured work per kAssign. */
constexpr double kTargetAssignMs = 4.0;
/** Adaptive batch ceiling (fixed assignBatch > 0 is uncapped). */
constexpr std::size_t kMaxAdaptiveBatch = 16;

/** Unrecoverable sweep failure (carries the loud report). */
struct AbortError {
    std::string message;
};

struct Slot {
    pid_t pid = -1;
    int rfd = -1; ///< worker -> coordinator (nonblocking)
    int wfd = -1; ///< coordinator -> worker (nonblocking)
    FrameDecoder decoder;
    Buffer outbox;
    std::size_t outPos = 0;
    std::deque<std::size_t> queue;  ///< pinned units not yet sent
    std::set<std::size_t> inflight; ///< sent, not yet completed
    /** Heartbeat arrival per in-flight unit (adaptive batch sizing). */
    std::map<std::uint64_t, Clock::time_point> startedAt;
    /** Warm keys this slot holds (scratch persists across respawns). */
    std::set<std::string> keysHeld;
    int spawns = 0;
    bool alive = false;
    bool disabled = false;
    Clock::time_point respawnAt{}; ///< valid when !alive && !disabled
    Clock::time_point lastFrame{};
    std::string scratch;
};

void
setFdFlags(int fd)
{
    int fl = ::fcntl(fd, F_GETFL);
    ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    int fdfl = ::fcntl(fd, F_GETFD);
    ::fcntl(fd, F_SETFD, fdfl | FD_CLOEXEC);
}

/**
 * FNV-1a content fingerprint of one point's trial records (trial,
 * seed, metric names and raw double bits). Duplicate completions are
 * verified against this 64-bit hash instead of retained records — the
 * trade that keeps coordinator memory O(points), not O(records). A
 * disagreeing duplicate always hashes differently; a colliding *and*
 * corrupt duplicate would additionally have to pass the per-frame CRC
 * and the seed-schedule check to slip through.
 */
std::uint64_t
pointHash(const std::vector<exp::TrialRecord> &records)
{
    std::uint64_t h = io::kFnv1aSeed;
    for (const exp::TrialRecord &rec : records) {
        h = io::fnv1aU64(static_cast<std::uint64_t>(rec.trial), h);
        h = io::fnv1aU64(rec.seed, h);
        h = io::fnv1aU64(rec.metrics.size(), h);
        for (const auto &kv : rec.metrics) {
            // With the name's terminator: "ab"+"c" != "a"+"bc".
            h = io::fnv1a(kv.first.c_str(), kv.first.size() + 1, h);
            h = io::fnv1aU64(io::f64Bits(kv.second), h);
        }
    }
    return h;
}

/** The whole mutable state of one sharded sweep. */
struct Run {
    const exp::ScenarioSpec &spec;
    const ShardOptions &opts; ///< binaryPath already resolved
    exp::SweepMeta meta;
    exp::ResultSink &sink; ///< adopted points stream out through this
    std::size_t trialsPerPoint = 1;

    std::vector<std::string> pointKey; ///< placement key per point
    std::vector<char> completed;
    std::size_t completedPoints = 0;
    std::vector<std::uint64_t> recHash; ///< pointHash per completed point
    std::vector<int> attempts;       ///< deaths while holding the unit
    std::size_t respawns = 0;        ///< deaths answered with a respawn
    std::deque<std::size_t> orphans; ///< reassigned units awaiting a home

    exp::ResumeManifest header; ///< sweep identity (points map unused)
    bool resumable = false;
    bool storeMatched = false;
    std::string storePath;
    /** Durable O(1)-per-point checkpoint of the result directory. */
    std::unique_ptr<exp::ColumnStoreWriter> checkpoint;
    bool checkpointOk = false;

    std::map<std::string, state::Buffer> snapCache;

    std::vector<Slot> slots;
    std::string runDir; ///< per-run scratch (removed on clean exit)
    Buffer helloPayload;
    /**
     * EWMA of per-point wall cost in ms, measured heartbeat → result.
     * Batched points' later results include time spent behind their
     * batchmates, which over-estimates cheap points — that only
     * shrinks the next batch, so the feedback is self-limiting.
     */
    double pointCostMs = 0.0;

    Run(const exp::ScenarioSpec &s, const ShardOptions &o,
        exp::ResultSink &k)
        : spec(s), opts(o), sink(k)
    {
    }

    [[noreturn]] void fail(const std::string &msg)
    {
        throw AbortError{failureReport(msg)};
    }

    std::string failureReport(const std::string &msg) const
    {
        std::string report =
            "scenario '" + spec.name + "': sharded sweep failed: " + msg;
        report += "\n  workers:";
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const Slot &s = slots[i];
            report += "\n    w" + std::to_string(i) + ": " +
                      (s.disabled ? "disabled"
                                  : (s.alive ? "alive" : "down")) +
                      ", spawns " + std::to_string(s.spawns) +
                      ", inflight " + std::to_string(s.inflight.size()) +
                      ", queued " + std::to_string(s.queue.size());
        }
        std::size_t remaining = completed.size() - completedPoints;
        report += "\n  points remaining: " + std::to_string(remaining) +
                  " of " + std::to_string(completed.size());
        return report;
    }

    // ------------------------------------------------------ lifecycle

    void spawn(std::size_t idx)
    {
        Slot &s = slots[idx];
        int c2w[2], w2c[2];
        if (::pipe(c2w) != 0 || ::pipe(w2c) != 0)
            fail(std::string("pipe() failed: ") + std::strerror(errno));

        std::vector<std::string> args;
        args.push_back(opts.binaryPath);
        for (const std::string &a : opts.workerArgs)
            args.push_back(a);
        args.push_back("--shard-worker");
        args.push_back("--shard-in");
        args.push_back(std::to_string(c2w[0]));
        args.push_back("--shard-out");
        args.push_back(std::to_string(w2c[1]));
        args.push_back("--shard-scratch");
        args.push_back(s.scratch);
        if (idx == 0 && opts.testKillWorker0AfterUnits > 0) {
            args.push_back("--shard-kill-after");
            args.push_back(std::to_string(opts.testKillWorker0AfterUnits));
        }
        if (idx == 0 && !opts.testWorker0FaultSpec.empty()) {
            args.push_back("--shard-fault");
            args.push_back(opts.testWorker0FaultSpec);
        }
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        pid_t pid = ::fork();
        if (pid < 0)
            fail(std::string("fork() failed: ") + std::strerror(errno));
        if (pid == 0) {
            // Child. The parent-side pipe ends of every other worker
            // are CLOEXEC, so exec drops them; only this worker's two
            // fds survive — which is what makes a worker's EOF an
            // unambiguous death signal.
            ::close(c2w[1]);
            ::close(w2c[0]);
            ::execv(argv[0], argv.data());
            std::fprintf(stderr, "shard: exec '%s' failed: %s\n",
                         argv[0], std::strerror(errno));
            ::_exit(127);
        }
        ::close(c2w[0]);
        ::close(w2c[1]);
        setFdFlags(c2w[1]);
        setFdFlags(w2c[0]);
        s.pid = pid;
        s.wfd = c2w[1];
        s.rfd = w2c[0];
        s.decoder = FrameDecoder();
        s.outbox.clear();
        s.outPos = 0;
        s.startedAt.clear();
        s.alive = true;
        s.lastFrame = Clock::now();
        ++s.spawns;
        enqueueFrame(s, MsgType::kHello, helloPayload);
    }

    void enqueueFrame(Slot &s, MsgType type, const Buffer &payload)
    {
        state::appendChunkFrame(s.outbox, static_cast<std::uint32_t>(type),
                                payload);
        flushOutbox(s);
    }

    /** Nonblocking drain; EPIPE means the worker died, which is also
     *  visible (and handled) as EOF on the read side. */
    void flushOutbox(Slot &s)
    {
        if (s.wfd < 0)
            return;
        while (s.outPos < s.outbox.size()) {
            ssize_t n = io::write(s.wfd, s.outbox.data() + s.outPos,
                                  s.outbox.size() - s.outPos, "shard.send",
                                  nullptr);
            if (n > 0) {
                s.outPos += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            break; // EAGAIN (pipe full) or EPIPE (dead)
        }
        if (s.outPos == s.outbox.size()) {
            s.outbox.clear();
            s.outPos = 0;
        }
    }

    void killWorker(Slot &s)
    {
        if (s.pid > 0)
            ::kill(s.pid, SIGKILL);
    }

    void reapWorker(Slot &s)
    {
        if (s.pid > 0) {
            int status = 0;
            while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
            }
            s.pid = -1;
        }
        if (s.rfd >= 0) {
            ::close(s.rfd);
            s.rfd = -1;
        }
        if (s.wfd >= 0) {
            ::close(s.wfd);
            s.wfd = -1;
        }
        s.alive = false;
    }

    // ----------------------------------------------------- scheduling

    void sendWarmIfNeeded(Slot &s, std::size_t unit)
    {
        if (!spec.warmup)
            return;
        const std::string &key = pointKey[unit];
        if (s.keysHeld.count(key))
            return;
        auto it = snapCache.find(key);
        if (it != snapCache.end()) {
            SnapshotMsg msg;
            msg.key = key;
            msg.bytes = it->second;
            enqueueFrame(s, MsgType::kSnapshotPut, encodeSnapshot(msg));
        }
        // Either pushed, or the worker computes (and uploads) it on
        // first use; both ways the slot holds the key afterwards.
        s.keysHeld.insert(key);
    }

    bool stealInto(Slot &thief, std::size_t &unit)
    {
        Slot *victim = nullptr;
        for (Slot &s : slots) {
            if (&s == &thief || s.queue.empty())
                continue;
            if (!victim || s.queue.size() > victim->queue.size())
                victim = &s;
        }
        if (!victim)
            return false;
        // Take from the back: the victim keeps draining its own front,
        // so the two never ping-pong one warm group's units.
        unit = victim->queue.back();
        victim->queue.pop_back();
        return true;
    }

    /**
     * Points per kAssign frame: fixed when opts.assignBatch > 0,
     * otherwise sized so one frame carries ~kTargetAssignMs of
     * measured work (1 until the first measurement arrives).
     */
    std::size_t batchTarget() const
    {
        if (opts.assignBatch > 0)
            return static_cast<std::size_t>(opts.assignBatch);
        if (pointCostMs <= 0.0)
            return 1;
        double n = kTargetAssignMs / pointCostMs;
        if (n <= 1.0)
            return 1;
        if (n >= static_cast<double>(kMaxAdaptiveBatch))
            return kMaxAdaptiveBatch;
        return static_cast<std::size_t>(n);
    }

    void topUp(Slot &s)
    {
        const std::size_t batch = batchTarget();
        const std::size_t window =
            static_cast<std::size_t>(opts.unitWindow) * batch;
        while (s.alive && s.inflight.size() < window) {
            AssignMsg assign;
            while (assign.pointIndices.size() < batch &&
                   s.inflight.size() + assign.pointIndices.size() <
                       window) {
                std::size_t unit;
                if (!s.queue.empty()) {
                    unit = s.queue.front();
                    s.queue.pop_front();
                } else if (!orphans.empty()) {
                    unit = orphans.front();
                    orphans.pop_front();
                } else if (!stealInto(s, unit)) {
                    break;
                }
                if (completed[unit])
                    continue; // recovered from a scratch manifest
                sendWarmIfNeeded(s, unit);
                assign.pointIndices.push_back(unit);
            }
            if (assign.pointIndices.empty())
                return;
            enqueueFrame(s, MsgType::kAssign, encodeAssign(assign));
            for (std::uint64_t unit : assign.pointIndices)
                s.inflight.insert(static_cast<std::size_t>(unit));
        }
    }

    // -------------------------------------------------------- results

    void adoptPoint(std::size_t point_idx,
                    const std::vector<exp::TrialRecord> &records,
                    const std::string &origin)
    {
        if (point_idx >= completed.size())
            fail(origin + " reported point " + std::to_string(point_idx) +
                 " beyond the grid");
        if (records.size() != trialsPerPoint)
            fail(origin + " reported " + std::to_string(records.size()) +
                 " trials for point " + std::to_string(point_idx) +
                 ", expected " + std::to_string(trialsPerPoint));
        for (std::size_t t = 0; t < records.size(); ++t) {
            std::uint64_t global_idx =
                static_cast<std::uint64_t>(point_idx) * trialsPerPoint + t;
            std::uint64_t want =
                exp::deriveTrialSeed(header.baseSeed, global_idx);
            if (records[t].trial != static_cast<int>(t) ||
                records[t].seed != want ||
                records[t].pointIndex != point_idx)
                fail(origin +
                     " drifted from the per-trial seed schedule at "
                     "point " +
                     std::to_string(point_idx) +
                     " (corrupt or mismatched worker)");
        }
        std::uint64_t h = pointHash(records);
        if (completed[point_idx]) {
            // A unit can legitimately complete twice after a worker
            // death (finished in scratch, then reassigned). Identical
            // bits dedupe silently; different bits mean corruption or a
            // nondeterministic trial function — never paper over that.
            if (recHash[point_idx] != h)
                fail("duplicate results for point " +
                     std::to_string(point_idx) +
                     " disagree bit-for-bit (corruption or "
                     "nondeterministic trial function)");
            return;
        }
        sink.acceptPoint(point_idx, records.data(), records.size());
        if (checkpointOk) {
            try {
                checkpoint->acceptPoint(point_idx, records.data(),
                                        records.size());
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "warning: sweep checkpointing disabled: "
                             "%s\n",
                             e.what());
                checkpointOk = false;
            }
        }
        recHash[point_idx] = h;
        completed[point_idx] = 1;
        ++completedPoints;
        if (opts.progress)
            opts.progress(completedPoints * trialsPerPoint,
                          completed.size() * trialsPerPoint);
    }

    void handleFrame(std::size_t idx, const Frame &frame)
    {
        Slot &s = slots[idx];
        switch (frame.type) {
          case MsgType::kHelloAck: {
            HelloAckMsg ack = decodeHelloAck(frame.payload);
            if (ack.gridFp != header.gridFp)
                fail("worker " + std::to_string(idx) +
                     " expanded a different grid (fingerprint mismatch "
                     "— mixed binaries?)");
            break;
          }
          case MsgType::kHeartbeat: {
            // Liveness is already covered (lastFrame refreshes on any
            // frame); the payload feeds adaptive batch sizing.
            HeartbeatMsg hb = decodeHeartbeat(frame.payload);
            if (hb.pointIndex != ~0ull)
                s.startedAt[hb.pointIndex] = Clock::now();
            break;
          }
          case MsgType::kSnapshotData: {
            SnapshotMsg msg = decodeSnapshot(frame.payload);
            s.keysHeld.insert(msg.key);
            if (snapCache.count(msg.key))
                break;
            try {
                state::ArchiveReader validate(msg.bytes);
                (void)validate;
            } catch (const state::ArchiveError &e) {
                std::fprintf(stderr,
                             "warning: ignoring corrupt snapshot upload "
                             "from w%zu: %s\n",
                             idx, e.what());
                break;
            }
            snapCache.emplace(msg.key, std::move(msg.bytes));
            break;
          }
          case MsgType::kResult: {
            ResultMsg msg = decodeResult(frame.payload);
            std::size_t unit = static_cast<std::size_t>(msg.pointIndex);
            auto started = s.startedAt.find(msg.pointIndex);
            if (started != s.startedAt.end()) {
                double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - started->second)
                                .count();
                s.startedAt.erase(started);
                pointCostMs = pointCostMs <= 0.0
                                  ? ms
                                  : 0.7 * pointCostMs + 0.3 * ms;
            }
            adoptPoint(unit, msg.trials, "worker " + std::to_string(idx));
            s.inflight.erase(unit);
            break;
          }
          case MsgType::kWorkerError: {
            ErrorMsg err = decodeError(frame.payload);
            fail("worker " + std::to_string(idx) + ": " + err.message);
            break;
          }
          default:
            fail("unexpected " + std::string(msgTypeName(frame.type)) +
                 " frame from worker " + std::to_string(idx));
        }
    }

    // --------------------------------------------------- worker death

    void scavengeScratch(std::size_t idx)
    {
        Slot &s = slots[idx];
        exp::ResumeManifest scavenged;
        if (!exp::loadManifest(
                exp::resultStorePath(s.scratch, spec.name), scavenged))
            return;
        if (!scavenged.matches(header))
            return; // stale scratch from an unrelated run
        std::string origin =
            "worker " + std::to_string(idx) + " (scratch store)";
        for (const auto &kv : scavenged.points)
            adoptPoint(kv.first, kv.second, origin);

        // Recover its warm snapshots too, so replacement workers can be
        // seeded instead of re-simulating the warmups it finished.
        if (spec.warmup) {
            for (const std::string &key : s.keysHeld) {
                if (snapCache.count(key))
                    continue;
                try {
                    state::Buffer cached = state::readFile(
                        exp::warmSnapshotPath(s.scratch, spec.name, key));
                    state::ArchiveReader validate(cached);
                    (void)validate;
                    snapCache.emplace(key, std::move(cached));
                } catch (const state::ArchiveError &) {
                    // Never written, or torn: the next owner recomputes.
                }
            }
        }
    }

    void onWorkerDeath(std::size_t idx)
    {
        Slot &s = slots[idx];
        reapWorker(s);
        scavengeScratch(idx);

        // Reassign what it still owed. In-flight units are charged an
        // attempt (the unit was running when the process died); queued
        // units never started and move for free.
        for (std::size_t unit : s.inflight) {
            if (completed[unit])
                continue;
            if (++attempts[unit] >= opts.maxUnitAttempts)
                fail("point " + std::to_string(unit) + " (" +
                     meta.points[unit].toString() + ") died with " +
                     std::to_string(attempts[unit]) +
                     " workers (attempt limit " +
                     std::to_string(opts.maxUnitAttempts) + ")");
            orphans.push_back(unit);
        }
        s.inflight.clear();
        s.startedAt.clear();
        for (std::size_t unit : s.queue)
            if (!completed[unit])
                orphans.push_back(unit);
        s.queue.clear();

        if (s.spawns >= opts.maxSpawnsPerWorker) {
            s.disabled = true;
            std::fprintf(stderr,
                         "shard: worker %zu disabled after %d spawns; "
                         "its units move to the remaining workers\n",
                         idx, s.spawns);
        } else {
            // Exponential backoff between respawns of the same slot.
            ++respawns;
            int delay_ms = std::min(50 << (s.spawns - 1), 1000);
            s.respawnAt =
                Clock::now() + std::chrono::milliseconds(delay_ms);
            std::fprintf(stderr,
                         "shard: worker %zu died; respawning in %d ms "
                         "(spawn %d of %d)\n",
                         idx, delay_ms, s.spawns + 1,
                         opts.maxSpawnsPerWorker);
        }

        bool anyone_left = false;
        for (const Slot &other : slots)
            if (other.alive || !other.disabled)
                anyone_left = true;
        if (!anyone_left && completedPoints < completed.size())
            fail("every worker slot exhausted its spawn budget");
    }

    // ------------------------------------------------------ main loop

    void eventLoop()
    {
        while (completedPoints < completed.size()) {
            Clock::time_point now = Clock::now();

            for (std::size_t i = 0; i < slots.size(); ++i) {
                Slot &s = slots[i];
                if (!s.alive && !s.disabled && now >= s.respawnAt)
                    spawn(i);
            }

            for (Slot &s : slots)
                if (s.alive)
                    topUp(s);

            std::vector<struct pollfd> pfds;
            std::vector<std::pair<std::size_t, bool>> who; // slot, isRead
            for (std::size_t i = 0; i < slots.size(); ++i) {
                Slot &s = slots[i];
                if (!s.alive)
                    continue;
                pfds.push_back({s.rfd, POLLIN, 0});
                who.emplace_back(i, true);
                if (s.outPos < s.outbox.size()) {
                    pfds.push_back({s.wfd, POLLOUT, 0});
                    who.emplace_back(i, false);
                }
            }
            if (pfds.empty()) {
                // Nothing alive: sleep until the nearest respawn.
                Clock::time_point wake = now + std::chrono::seconds(1);
                for (const Slot &s : slots)
                    if (!s.alive && !s.disabled)
                        wake = std::min(wake, s.respawnAt);
                auto ms = std::chrono::duration_cast<
                              std::chrono::milliseconds>(wake - now)
                              .count();
                if (ms > 0)
                    ::poll(nullptr, 0, static_cast<int>(ms));
                continue;
            }

            int timeout_ms = 500;
            if (opts.stallTimeoutMs > 0)
                timeout_ms = std::min(
                    timeout_ms, std::max(1, opts.stallTimeoutMs / 4));
            int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                            timeout_ms);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                fail(std::string("poll() failed: ") +
                     std::strerror(errno));
            }

            std::vector<std::size_t> deaths;
            for (std::size_t p = 0; p < pfds.size(); ++p) {
                if (pfds[p].revents == 0)
                    continue;
                std::size_t idx = who[p].first;
                Slot &s = slots[idx];
                if (!s.alive)
                    continue;
                if (!who[p].second) {
                    flushOutbox(s);
                    continue;
                }
                bool dead = false;
                for (;;) {
                    std::uint8_t chunk[65536];
                    ssize_t n = io::read(s.rfd, chunk, sizeof chunk,
                                         "shard.recv", nullptr);
                    if (n > 0) {
                        s.decoder.feed(chunk,
                                       static_cast<std::size_t>(n));
                        s.lastFrame = Clock::now();
                        continue;
                    }
                    if (n == 0) {
                        dead = true;
                        break;
                    }
                    if (errno == EINTR)
                        continue;
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    dead = true;
                    break;
                }
                // Drain complete frames — including ones that arrived
                // just before a death. A CRC/framing error here means
                // the stream itself is corrupt: results can no longer
                // be trusted, so it aborts rather than retries. (A
                // kill mid-frame-write is NOT corruption — the partial
                // tail simply never completes and is discarded.)
                Frame frame;
                try {
                    while (s.decoder.next(frame))
                        handleFrame(idx, frame);
                } catch (const ProtocolError &e) {
                    fail("worker " + std::to_string(idx) +
                         " protocol corruption: " + e.what());
                }
                if (dead)
                    deaths.push_back(idx);
            }
            for (std::size_t idx : deaths)
                if (slots[idx].alive)
                    onWorkerDeath(idx);

            // Live-but-wedged workers (optional watchdog).
            if (opts.stallTimeoutMs > 0) {
                now = Clock::now();
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    Slot &s = slots[i];
                    if (s.alive && !s.inflight.empty() &&
                        now - s.lastFrame > std::chrono::milliseconds(
                                                opts.stallTimeoutMs)) {
                        std::fprintf(stderr,
                                     "shard: worker %zu stalled for "
                                     ">%d ms; killing\n",
                                     i, opts.stallTimeoutMs);
                        killWorker(s);
                        // Death completes via EOF on the next poll.
                    }
                }
            }
        }
    }

    void shutdownWorkers()
    {
        for (Slot &s : slots)
            if (s.alive)
                enqueueFrame(s, MsgType::kShutdown, Buffer());
        // Grace window, then SIGKILL. Every result is accounted for by
        // now, so a straggler (e.g. blocked uploading a snapshot the
        // sweep no longer needs) loses nothing.
        Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(5);
        for (Slot &s : slots) {
            if (!s.alive)
                continue;
            for (;;) {
                flushOutbox(s);
                // Discard late frames so a worker blocked writing can
                // reach its next read and see the shutdown.
                std::uint8_t sink[4096];
                while (io::read(s.rfd, sink, sizeof sink, "shard.recv",
                                nullptr) > 0) {
                }
                int status = 0;
                pid_t got = ::waitpid(s.pid, &status, WNOHANG);
                if (got == s.pid || (got < 0 && errno != EINTR)) {
                    s.pid = -1;
                    break;
                }
                if (Clock::now() >= deadline) {
                    killWorker(s);
                    break;
                }
                ::poll(nullptr, 0, 10);
            }
            reapWorker(s);
        }
    }

    void killAll()
    {
        for (Slot &s : slots) {
            if (s.alive)
                killWorker(s);
            reapWorker(s);
        }
    }
};

} // namespace

std::string
selfExecutablePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        throw std::runtime_error(
            "shard: cannot resolve /proc/self/exe; pass "
            "ShardOptions::binaryPath explicitly");
    buf[n] = '\0';
    return std::string(buf);
}

ShardCoordinator::ShardCoordinator(ShardOptions opts)
    : opts_(std::move(opts))
{
}

exp::StreamStats
ShardCoordinator::runStreaming(const exp::ScenarioSpec &spec,
                               exp::ResultSink &sink) const
{
    if (!spec.run)
        throw std::invalid_argument("ShardCoordinator: scenario '" +
                                    spec.name +
                                    "' has no trial function");
    if (opts_.workers < 1)
        throw std::invalid_argument(
            "ShardCoordinator: workers must be >= 1");
    if (opts_.unitWindow < 1 || opts_.maxUnitAttempts < 1 ||
        opts_.maxSpawnsPerWorker < 1)
        throw std::invalid_argument(
            "ShardCoordinator: window/attempt/spawn bounds must be >= 1");
    if (opts_.assignBatch < 0)
        throw std::invalid_argument(
            "ShardCoordinator: assignBatch must be >= 0 (0 = adaptive)");

    ShardOptions resolved = opts_;
    if (resolved.binaryPath.empty())
        resolved.binaryPath = selfExecutablePath();

    Run run(spec, resolved, sink);
    run.meta.scenario = spec.name;
    run.meta.description = spec.description;
    run.meta.baseSeed = resolved.seed.value_or(spec.baseSeed);
    run.meta.trialsPerPoint = resolved.trials.value_or(spec.trials);
    if (run.meta.trialsPerPoint < 1)
        throw std::invalid_argument(
            "ShardCoordinator: trials must be >= 1");
    run.meta.points = expandPoints(spec);
    run.meta.gridFp = exp::gridFingerprint(run.meta.points);
    run.trialsPerPoint =
        static_cast<std::size_t>(run.meta.trialsPerPoint);
    const std::size_t n_points = run.meta.points.size();

    exp::StreamStats stats;
    stats.points = n_points;
    stats.jobs = resolved.workers;

    auto t0 = Clock::now();

    run.header.scenario = run.meta.scenario;
    run.header.baseSeed = run.meta.baseSeed;
    run.header.trialsPerPoint = run.meta.trialsPerPoint;
    run.header.numPoints = n_points;
    run.header.gridFp = run.meta.gridFp;
    run.completed.assign(n_points, 0);
    run.recHash.assign(n_points, 0);
    run.attempts.assign(n_points, 0);

    sink.beginSweep(run.meta);

    // Resume: replay points completed by a previous matching run into
    // the sink (index order) before partitioning the remainder.
    run.resumable = !resolved.resumeDir.empty();
    if (run.resumable) {
        run.storePath =
            exp::resultStorePath(resolved.resumeDir, run.meta.scenario);
        try {
            exp::ColumnStoreReader prior(run.storePath);
            if (prior.matches(run.meta)) {
                run.storeMatched = true;
                prior.forEachPoint(
                    [&](std::size_t idx,
                        const std::vector<exp::TrialRecord> &records) {
                        sink.acceptPoint(idx, records.data(),
                                         records.size());
                        run.recHash[idx] = pointHash(records);
                        run.completed[idx] = 1;
                        ++run.completedPoints;
                    });
                stats.resumedPoints = run.completedPoints;
            } else {
                std::fprintf(stderr,
                             "warning: %s does not match this sweep "
                             "(grid/seed/trials changed) — restarting "
                             "from scratch\n",
                             run.storePath.c_str());
            }
        } catch (const state::ArchiveError &) {
            // Missing or unusable store: start fresh.
        }
        // Durable checkpoint: adopts the matching store (no re-append
        // of the replayed points), recreates a stale one. O(1) fsync'd
        // append per adopted point from here on.
        try {
            exp::ColumnStoreWriter::Options copts;
            copts.durable = true;
            run.checkpoint.reset(
                new exp::ColumnStoreWriter(run.storePath, copts));
            run.checkpoint->beginSweep(run.meta);
            run.checkpointOk = true;
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "warning: sweep checkpointing disabled: %s\n",
                         e.what());
            run.checkpoint.reset();
        }
    }

    // Placement keys: the warmup key groups points sharing a warm
    // state; without a warmup each point is its own key (pure spread).
    run.pointKey.resize(n_points);
    for (std::size_t i = 0; i < n_points; ++i)
        run.pointKey[i] = spec.warmupKey
                              ? spec.warmupKey(run.meta.points[i])
                              : run.meta.points[i].toString();

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n_points; ++i)
        if (!run.completed[i])
            pending.push_back(i);

    if (!pending.empty()) {
        // Warm-snapshot cache reuse across restarts: trusted only when
        // the store vouched for the result directory (same rule as
        // SweepRunner's WarmTable).
        if (spec.warmup && run.resumable && run.storeMatched) {
            std::set<std::string> wanted;
            for (std::size_t i : pending)
                wanted.insert(run.pointKey[i]);
            for (const std::string &key : wanted) {
                try {
                    state::Buffer cached = state::readFile(
                        exp::warmSnapshotPath(resolved.resumeDir,
                                              run.meta.scenario, key));
                    state::ArchiveReader validate(cached);
                    (void)validate;
                    run.snapCache.emplace(key, std::move(cached));
                } catch (const state::ArchiveError &) {
                }
            }
        }

        std::size_t n_workers = std::min<std::size_t>(
            static_cast<std::size_t>(resolved.workers), pending.size());

        std::string scratch_root = resolved.scratchDir.empty()
                                       ? std::string("shard-scratch")
                                       : resolved.scratchDir;
        run.runDir = (fs::path(scratch_root) /
                      (run.meta.scenario + "-" +
                       std::to_string(::getpid())))
                         .string();
        std::error_code ec;
        fs::create_directories(run.runDir, ec);
        if (ec)
            throw std::runtime_error("shard: cannot create scratch '" +
                                     run.runDir + "': " + ec.message());

        run.slots.resize(n_workers);
        for (std::size_t i = 0; i < n_workers; ++i)
            run.slots[i].scratch =
                (fs::path(run.runDir) / ("w" + std::to_string(i)))
                    .string();

        // Pin each pending unit to the worker owning its warm key.
        HashRing ring(n_workers);
        for (std::size_t unit : pending)
            run.slots[ring.lookup(run.pointKey[unit])].queue.push_back(
                unit);

        HelloMsg hello;
        hello.scenario = run.meta.scenario;
        hello.baseSeed = run.meta.baseSeed;
        hello.trialsPerPoint = run.meta.trialsPerPoint;
        hello.numPoints = n_points;
        hello.gridFp = run.meta.gridFp;
        run.helloPayload = encodeHello(hello);

        // Writing into a dead worker's pipe must surface as EPIPE, not
        // kill the coordinator process.
        void (*old_sigpipe)(int) = std::signal(SIGPIPE, SIG_IGN);

        try {
            for (std::size_t i = 0; i < run.slots.size(); ++i)
                run.spawn(i);
            run.eventLoop();
            run.shutdownWorkers();
        } catch (const AbortError &e) {
            run.killAll();
            std::signal(SIGPIPE, old_sigpipe);
            std::fprintf(stderr,
                         "shard: scratch kept for inspection: %s\n",
                         run.runDir.c_str());
            throw std::runtime_error(e.message);
        } catch (...) {
            run.killAll();
            std::signal(SIGPIPE, old_sigpipe);
            throw;
        }
        std::signal(SIGPIPE, old_sigpipe);

        // Persist warm snapshots for bit-exact restarts, then drop the
        // scratch tree (per-worker caches and partial stores are
        // transient by contract).
        if (run.resumable && spec.warmup) {
            for (const auto &kv : run.snapCache) {
                try {
                    state::atomicWriteFile(
                        exp::warmSnapshotPath(resolved.resumeDir,
                                              run.meta.scenario,
                                              kv.first),
                        kv.second);
                } catch (const state::ArchiveError &e) {
                    std::fprintf(stderr,
                                 "warning: warm-cache persist failed: "
                                 "%s\n",
                                 e.what());
                }
            }
        }
        fs::remove_all(run.runDir, ec);
        fs::remove(fs::path(scratch_root), ec); // only when empty
    }

    stats.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    stats.respawns = run.respawns;

    sink.endSweep();
    if (run.checkpointOk) {
        try {
            run.checkpoint->endSweep();
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "warning: result store footer not written: "
                         "%s\n",
                         e.what());
        }
    }
    return stats;
}

exp::SweepResult
ShardCoordinator::run(const exp::ScenarioSpec &spec) const
{
    exp::MaterializeSink materialize;
    exp::StreamStats stats = runStreaming(spec, materialize);
    exp::SweepResult result = materialize.take();
    result.jobs = stats.jobs;
    result.wallSeconds = stats.wallSeconds;
    result.resumedPoints = stats.resumedPoints;
    result.aggregates = aggregate(result.points, result.trials);
    return result;
}

exp::SweepResult
runSharded(const exp::ScenarioSpec &spec, ShardOptions opts)
{
    ShardCoordinator coordinator(std::move(opts));
    return coordinator.run(spec);
}

exp::StreamStats
runShardedStreaming(const exp::ScenarioSpec &spec, ShardOptions opts,
                    exp::ResultSink &sink)
{
    ShardCoordinator coordinator(std::move(opts));
    return coordinator.runStreaming(spec, sink);
}

} // namespace shard
} // namespace ich
