#include "shard/worker.hh"

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "exp/colstore.hh"
#include "exp/resume.hh"
#include "fault/fault.hh"
#include "io/fileops.hh"
#include "shard/protocol.hh"
#include "state/archive.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace shard
{

namespace
{

/**
 * Worker-side warm-snapshot cache: memory first, then the scratch
 * directory (so a respawned worker after a crash reuses its
 * predecessor's work), then coordinator pushes, and only then a fresh
 * warmup computation. Freshly computed snapshots are persisted to
 * scratch *and* uploaded so the coordinator can seed other workers.
 */
class WarmCache
{
  public:
    WarmCache(const exp::ScenarioSpec &spec, std::string scratch_dir,
              int out_fd)
        : spec_(spec), scratchDir_(std::move(scratch_dir)),
          outFd_(out_fd)
    {
    }

    void putFromCoordinator(const SnapshotMsg &msg)
    {
        // The payload is a state archive: self-validating. A corrupt
        // push is a coordinator/disk bug — reject loudly rather than
        // silently recomputing what the coordinator believes is cached.
        state::ArchiveReader validate(msg.bytes); // throws ArchiveError
        (void)validate;
        persist(msg.key, msg.bytes);
        cache_[msg.key] = msg.bytes;
    }

    const state::Buffer &get(const exp::ParamPoint &point,
                             const std::string &key)
    {
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;

        // Scratch file left by a previous incarnation of this worker.
        std::string path =
            exp::warmSnapshotPath(scratchDir_, spec_.name, key);
        try {
            state::Buffer cached = state::readFile(path);
            state::ArchiveReader validate(cached); // CRC/version
            (void)validate;
            return cache_.emplace(key, std::move(cached)).first->second;
        } catch (const state::ArchiveError &) {
            // Missing or corrupt: recompute below.
        }

        state::Buffer fresh = spec_.warmup(point);
        persist(key, fresh);
        SnapshotMsg up;
        up.key = key;
        up.bytes = fresh;
        writeFrame(outFd_, MsgType::kSnapshotData, encodeSnapshot(up));
        return cache_.emplace(key, std::move(fresh)).first->second;
    }

  private:
    const exp::ScenarioSpec &spec_;
    std::string scratchDir_;
    int outFd_;
    std::map<std::string, state::Buffer> cache_;

    void persist(const std::string &key, const state::Buffer &bytes)
    {
        std::error_code ec;
        std::filesystem::create_directories(scratchDir_, ec);
        try {
            state::atomicWriteFile(
                exp::warmSnapshotPath(scratchDir_, spec_.name, key),
                bytes);
        } catch (const state::ArchiveError &e) {
            // The scratch cache is an optimization; losing it costs a
            // recompute after a crash, never correctness.
            std::fprintf(stderr,
                         "shard worker: warm-cache write failed: %s\n",
                         e.what());
        }
    }
};

} // namespace

int
runWorker(const exp::ScenarioRegistry &registry, const WorkerConfig &cfg)
{
    auto fatal = [&cfg](const std::string &msg) -> int {
        ErrorMsg err;
        err.message = msg;
        try {
            writeFrame(cfg.outFd, MsgType::kWorkerError,
                       encodeError(err));
        } catch (const ProtocolError &) {
            // Coordinator already gone; stderr is all that's left.
        }
        std::fprintf(stderr, "shard worker: %s\n", msg.c_str());
        return 3;
    };

    try {
        if (!cfg.faultSpec.empty())
            fault::arm(fault::parsePlan(cfg.faultSpec));

        Frame hello_frame = readFrame(cfg.inFd);
        if (hello_frame.type != MsgType::kHello)
            return fatal(std::string("expected hello, got ") +
                         msgTypeName(hello_frame.type));
        HelloMsg hello = decodeHello(hello_frame.payload);

        const exp::ScenarioSpec *spec = registry.find(hello.scenario);
        if (!spec)
            return fatal("scenario '" + hello.scenario +
                         "' not in this binary's registry");
        if (!spec->run)
            return fatal("scenario '" + hello.scenario +
                         "' has no trial function");

        // Re-expand the grid locally and prove it is the same sweep the
        // coordinator partitioned — a drifted binary fails loudly here
        // instead of producing silently different bytes.
        const std::uint64_t base_seed = hello.baseSeed;
        const int trials_per_point = hello.trialsPerPoint;
        if (trials_per_point < 1)
            return fatal("coordinator sent trials_per_point < 1");
        exp::SweepMeta meta;
        meta.scenario = hello.scenario;
        meta.baseSeed = base_seed;
        meta.trialsPerPoint = trials_per_point;
        meta.points = expandPoints(*spec);
        meta.gridFp = exp::gridFingerprint(meta.points);
        const std::vector<exp::ParamPoint> &points = meta.points;
        if (points.size() != hello.numPoints ||
            meta.gridFp != hello.gridFp)
            return fatal(
                "grid mismatch: this binary expands '" + hello.scenario +
                "' to " + std::to_string(points.size()) + " points (fp " +
                std::to_string(meta.gridFp) + "), coordinator has " +
                std::to_string(hello.numPoints) + " (fp " +
                std::to_string(hello.gridFp) +
                ") — rebuild or matching flags needed");
        const std::uint64_t grid_fp = meta.gridFp;

        HelloAckMsg ack;
        ack.pid = static_cast<std::int32_t>(::getpid());
        ack.gridFp = grid_fp;
        writeFrame(cfg.outFd, MsgType::kHelloAck, encodeHelloAck(ack));
        fault::procPoint("shard.post-hello");

        WarmCache warm(*spec, cfg.scratchDir, cfg.outFd);

        // Per-worker partial column store: same header as the master
        // so the coordinator can scavenge it back after a crash. A
        // respawned worker adopts its predecessor's file and keeps
        // appending. Batch-durable: one explicit sync() per assignment
        // batch instead of per-point fsyncs, so cheap points packed
        // many to a frame amortize the durability cost; a kill loses
        // at most the unreported batch in flight, which the
        // coordinator reassigns. Never endSweep()'d — a scratch store
        // is partial by contract. Scratch is an optimization, never
        // worth the unit: any write failure warns once and disables
        // crash recovery for this worker.
        exp::ColumnStoreWriter::Options scratch_opts;
        scratch_opts.durable = false;
        exp::ColumnStoreWriter scratch(
            exp::resultStorePath(cfg.scratchDir, hello.scenario),
            scratch_opts);
        bool scratch_ok = true;
        try {
            scratch.beginSweep(meta);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "shard worker: scratch store open failed "
                         "(crash recovery for this worker disabled): "
                         "%s\n",
                         e.what());
            scratch_ok = false;
        }

        int units_started = 0;
        for (;;) {
            Frame frame = readFrame(cfg.inFd);
            switch (frame.type) {
              case MsgType::kShutdown:
                return 0;
              case MsgType::kSnapshotPut:
                warm.putFromCoordinator(decodeSnapshot(frame.payload));
                break;
              case MsgType::kAssign: {
                AssignMsg assign = decodeAssign(frame.payload);
                if (assign.pointIndices.empty())
                    return fatal("empty assignment batch");
                // Durability order matters at batch granularity:
                // every point lands in the scratch store, ONE sync()
                // makes the whole batch fsync-durable, and only then
                // do the result frames go out. A kill before the sync
                // reverts the batch to unreported+unrecovered (it is
                // simply reassigned); a kill after it loses nothing —
                // the coordinator scavenges the store.
                std::vector<ResultMsg> batch_results;
                batch_results.reserve(assign.pointIndices.size());
                for (std::uint64_t unit : assign.pointIndices) {
                    std::size_t point_idx =
                        static_cast<std::size_t>(unit);
                    if (point_idx >= points.size())
                        return fatal("assigned point " +
                                     std::to_string(point_idx) +
                                     " beyond the grid");
                    HeartbeatMsg hb;
                    hb.pointIndex = unit;
                    writeFrame(cfg.outFd, MsgType::kHeartbeat,
                               encodeHeartbeat(hb));
                    // Mid-Assign-batch fault point: occ=K lands the
                    // fault at the Kth point of the sweep, so a batch
                    // can die (or hang) between its points.
                    fault::procPoint("shard.point-start");
                    ++units_started;
                    if (cfg.killAfterUnits > 0 &&
                        units_started >= cfg.killAfterUnits) {
                        // Test hook: die mid-unit, the ugly way, so
                        // the coordinator sees a raw EOF with a unit
                        // in flight.
                        ::raise(SIGKILL);
                    }

                    const exp::ParamPoint &point = points[point_idx];
                    const state::Buffer *snapshot = nullptr;
                    if (spec->warmup) {
                        std::string key = spec->warmupKey
                                              ? spec->warmupKey(point)
                                              : point.toString();
                        snapshot = &warm.get(point, key);
                    }

                    ResultMsg result;
                    result.pointIndex = unit;
                    for (int t = 0; t < trials_per_point; ++t) {
                        std::uint64_t global_idx =
                            static_cast<std::uint64_t>(point_idx) *
                                static_cast<std::uint64_t>(
                                    trials_per_point) +
                            static_cast<std::uint64_t>(t);
                        exp::TrialRecord rec;
                        rec.pointIndex = point_idx;
                        rec.trial = t;
                        rec.seed =
                            exp::deriveTrialSeed(base_seed, global_idx);
                        exp::TrialContext ctx{point, point_idx, t,
                                              rec.seed, snapshot};
                        rec.metrics = spec->run(ctx);
                        result.trials.push_back(std::move(rec));
                    }

                    if (scratch_ok) {
                        try {
                            scratch.acceptPoint(point_idx,
                                                result.trials.data(),
                                                result.trials.size());
                        } catch (const std::exception &e) {
                            std::fprintf(
                                stderr,
                                "shard worker: scratch store write "
                                "failed (crash recovery for this "
                                "worker disabled): %s\n",
                                e.what());
                            scratch_ok = false;
                        }
                    }
                    batch_results.push_back(std::move(result));
                }
                if (scratch_ok) {
                    try {
                        scratch.sync();
                    } catch (const std::exception &e) {
                        std::fprintf(
                            stderr,
                            "shard worker: scratch store sync failed "
                            "(crash recovery for this worker "
                            "disabled): %s\n",
                            e.what());
                        scratch_ok = false;
                    }
                }
                // After-scratch-sync-before-Result: the classic lost
                // window. A crash here loses every result frame of the
                // batch but none of its scratch durability — the
                // coordinator must scavenge the whole batch back.
                fault::procPoint("shard.post-sync");
                for (const ResultMsg &result : batch_results) {
                    std::uint64_t tear = 0;
                    if (fault::procPoint("shard.result-frame", &tear)) {
                        // Torn result frame: write a strict prefix of
                        // the encoded frame and die mid-frame, so the
                        // coordinator's decoder sees a partial frame
                        // followed by EOF.
                        Buffer wire;
                        state::appendChunkFrame(
                            wire,
                            static_cast<std::uint32_t>(MsgType::kResult),
                            encodeResult(result));
                        std::size_t k = wire.size() < 2
                                            ? 0
                                            : 1 + tear % (wire.size() - 1);
                        std::size_t sent = 0;
                        while (sent < k) {
                            ssize_t n = io::write(cfg.outFd,
                                                  wire.data() + sent,
                                                  k - sent, "shard.send",
                                                  nullptr);
                            if (n <= 0)
                                break;
                            sent += static_cast<std::size_t>(n);
                        }
                        ::raise(SIGKILL);
                    }
                    writeFrame(cfg.outFd, MsgType::kResult,
                               encodeResult(result));
                }
                break;
              }
              default:
                return fatal(std::string("unexpected frame: ") +
                             msgTypeName(frame.type));
            }
        }
    } catch (const ProtocolError &e) {
        // Pipe gone: the coordinator exited or was killed. Nothing to
        // report to — leave quietly so a dying sweep doesn't cascade.
        std::fprintf(stderr, "shard worker: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        // Trial function threw (deterministic failure — retrying on
        // another worker cannot help) or a local I/O error. Report and
        // exit; the coordinator aborts the sweep with this message.
        return fatal(e.what());
    }
}

} // namespace shard
} // namespace ich
