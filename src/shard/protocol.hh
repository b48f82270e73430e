/**
 * @file
 * Wire protocol between the shard coordinator and its worker
 * processes: CRC-framed messages over pipes.
 *
 * Every message is one chunk frame (state/chunkio.hh) whose kind is
 * the MsgType:
 *
 *   u32 magic "ICKF" | u32 type | u32 payloadLen | payload | u32 crc32
 *
 * The CRC covers the whole frame (magic, type, length and payload), so
 * a re-labelled, truncated or garbled frame surfaces as a clean
 * ProtocolError before any message field is interpreted — the same
 * loud-failure discipline as the chunk-file scanner, through the same
 * validator (state::checkChunkFrame). A pipe additionally bounds the
 * length at kMaxFrameBytes, so a garbage header fails at once instead
 * of allocating or waiting for bytes that never come. Payloads are
 * encoded with the io/codec.hh ByteWriter/ByteReader: explicit widths,
 * raw IEEE-754 bits for doubles, bounds-checked reads. A sharded
 * sweep's metric values therefore round-trip bit-exactly, which is what
 * makes `--shard N` byte-identical to an in-process run.
 *
 * Message vocabulary (coordinator = C, worker = W):
 *
 *   kHello       C->W  sweep identity: scenario, seed/trials overrides,
 *                      point count, grid fingerprint
 *   kHelloAck    W->C  worker pid + its own grid fingerprint (must match)
 *   kAssign      C->W  a batch of work units: grid-point indices (all
 *                      trials each); cheap points pack several per
 *                      frame so framing + durability amortize
 *   kSnapshotPut C->W  pre-seed the worker's warm cache for a key
 *   kSnapshotData W->C a warm snapshot the worker just computed
 *   kResult      W->C  completed point: per-trial seeds + metric bits
 *   kHeartbeat   W->C  liveness + which unit is starting
 *   kShutdown    C->W  clean exit request
 *   kWorkerError W->C  fatal worker-side failure (trial threw, grid
 *                      mismatch); the coordinator aborts the sweep
 */

#ifndef ICH_SHARD_PROTOCOL_HH
#define ICH_SHARD_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregate.hh"

namespace ich
{
namespace shard
{

/** Any framing/encoding problem: EOF, bad magic, CRC, truncation. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

using Buffer = std::vector<std::uint8_t>;

/** v3: every message travels as a chunk frame. */
constexpr std::uint32_t kProtocolVersion = 3;
/** Sanity bound on payloadLen: rejects garbage headers loudly. */
constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

enum class MsgType : std::uint32_t {
    kHello = 1,
    kHelloAck = 2,
    kAssign = 3,
    kSnapshotPut = 4,
    kSnapshotData = 5,
    kResult = 6,
    kHeartbeat = 7,
    kShutdown = 8,
    kWorkerError = 9,
};

/** Human-readable message-type name (for errors and logs). */
const char *msgTypeName(MsgType t);

struct Frame {
    MsgType type = MsgType::kShutdown;
    Buffer payload;
};

/**
 * Blocking, EINTR-safe frame write to @p fd (fault site shard.send).
 * Throws ProtocolError when the peer is gone (EPIPE) or the write
 * fails.
 */
void writeFrame(int fd, MsgType type, const Buffer &payload);

/**
 * Blocking, EINTR-safe frame read from @p fd (fault site shard.recv).
 * Throws ProtocolError on EOF, bad magic, oversized length, or CRC
 * mismatch.
 */
Frame readFrame(int fd);

/**
 * Incremental frame decoder for the coordinator's nonblocking reads:
 * feed() whatever bytes poll() surfaced, then drain complete frames
 * with next(). Garbage in the stream throws ProtocolError exactly as
 * readFrame would.
 */
class FrameDecoder
{
  public:
    void feed(const std::uint8_t *data, std::size_t size);
    /** Extract one complete frame; false when more bytes are needed. */
    bool next(Frame &out);

  private:
    Buffer buf_;
    std::size_t pos_ = 0; ///< consumed prefix, compacted lazily
};

// --------------------------------------------------- typed messages

/** Sweep identity the worker must reproduce exactly. */
struct HelloMsg {
    std::uint32_t protocolVersion = kProtocolVersion;
    std::string scenario;
    std::uint64_t baseSeed = 0;
    std::int32_t trialsPerPoint = 1;
    std::uint64_t numPoints = 0;
    std::uint64_t gridFp = 0; ///< exp::gridFingerprint of the expansion
};

struct HelloAckMsg {
    std::int32_t pid = 0;
    std::uint64_t gridFp = 0;
};

/**
 * One or more work units for a worker. Batching is a pure framing
 * optimization: the worker runs the points in order and reports one
 * kResult per point, so results, placement, and byte-identity are
 * indistinguishable from the same indices sent one frame each.
 */
struct AssignMsg {
    std::vector<std::uint64_t> pointIndices;
};

/** Warm snapshot keyed by the scenario's warmupKey (either direction). */
struct SnapshotMsg {
    std::string key;
    Buffer bytes; ///< a state::snapshot() archive (self-validating)
};

/** One completed grid point: its trials in trial order. */
struct ResultMsg {
    std::uint64_t pointIndex = 0;
    std::vector<exp::TrialRecord> trials;
};

/** ~0 means "idle"; otherwise the unit the worker is starting. */
struct HeartbeatMsg {
    std::uint64_t pointIndex = ~0ull;
};

struct ErrorMsg {
    std::string message;
};

Buffer encodeHello(const HelloMsg &m);
HelloMsg decodeHello(const Buffer &payload);
Buffer encodeHelloAck(const HelloAckMsg &m);
HelloAckMsg decodeHelloAck(const Buffer &payload);
Buffer encodeAssign(const AssignMsg &m);
AssignMsg decodeAssign(const Buffer &payload);
Buffer encodeSnapshot(const SnapshotMsg &m);
SnapshotMsg decodeSnapshot(const Buffer &payload);
Buffer encodeResult(const ResultMsg &m);
ResultMsg decodeResult(const Buffer &payload);
Buffer encodeHeartbeat(const HeartbeatMsg &m);
HeartbeatMsg decodeHeartbeat(const Buffer &payload);
Buffer encodeError(const ErrorMsg &m);
ErrorMsg decodeError(const Buffer &payload);

} // namespace shard
} // namespace ich

#endif // ICH_SHARD_PROTOCOL_HH
