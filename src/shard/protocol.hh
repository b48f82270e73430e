/**
 * @file
 * Wire protocol between the shard coordinator and its worker
 * processes: length-prefixed, CRC-framed messages over pipes.
 *
 * Frame layout (all integers little-endian, widths explicit):
 *
 *   u32 magic "ICHW" | u32 type | u64 payloadLen | u32 crc32(hdr16 || payload)
 *   payload bytes
 *
 * The CRC covers the first 16 header bytes (magic, type, length) and
 * then the payload, so a re-labelled, truncated or garbled frame surfaces
 * as a clean ProtocolError before any message field is interpreted —
 * the same loud-failure discipline as state::ArchiveReader. Payloads
 * are encoded with WireWriter/WireReader: explicit widths, raw
 * IEEE-754 bits for doubles, bounds-checked reads. A sharded sweep's
 * metric values therefore round-trip bit-exactly, which is what makes
 * `--shard N` byte-identical to an in-process run.
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

/** "ICHW" */
constexpr std::uint32_t kFrameMagic = 0x57484349u;
constexpr std::uint32_t kProtocolVersion = 2;
/** Sanity bound on payloadLen: rejects garbage headers loudly. */
constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;

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

/** Serialize a frame (header + payload) into a byte vector. */
Buffer encodeFrame(MsgType type, const Buffer &payload);

/**
 * Blocking, EINTR-safe frame write to @p fd. Throws ProtocolError when
 * the peer is gone (EPIPE) or the write fails.
 */
void writeFrame(int fd, MsgType type, const Buffer &payload);

/**
 * Blocking, EINTR-safe frame read from @p fd. Throws ProtocolError on
 * EOF, bad magic, oversized length, or CRC mismatch.
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

/** Append-only payload builder with explicit widths. */
class WireWriter
{
  public:
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI32(std::int32_t v);
    /** Raw IEEE-754 bits: metric values round-trip bit-exactly. */
    void putF64(double v);
    void putString(const std::string &v);
    void putBytes(const Buffer &v);

    Buffer take() { return std::move(buf_); }

  private:
    Buffer buf_;
};

/** Bounds-checked payload cursor; throws ProtocolError on truncation. */
class WireReader
{
  public:
    explicit WireReader(const Buffer &buf) : p_(buf.data()), end_(buf.data() + buf.size()) {}

    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int32_t getI32();
    double getF64();
    std::string getString();
    Buffer getBytes();

    std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;

    void need(std::size_t n) const;
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
