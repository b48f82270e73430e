#include "shard/protocol.hh"

#include <cerrno>
#include <cstring>

#include "io/codec.hh"
#include "io/fileops.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace shard
{

namespace
{

using Reader = io::ByteReader<ProtocolError>;

Reader
reader(const Buffer &payload)
{
    return Reader(payload.data(), payload.size(),
                  "shard protocol: message payload");
}

/** Check the frame at @p data with the chunk-frame validator: true when
 *  it is whole, false when more bytes are needed; garbage throws. */
bool
frameComplete(const std::uint8_t *data, std::size_t size,
              state::ChunkFrameCheck &c)
{
    c = state::checkChunkFrame(data, size, kMaxFrameBytes);
    switch (c.status) {
      case state::ChunkFrameCheck::kIncomplete:
        return false;
      case state::ChunkFrameCheck::kComplete:
        return true;
      case state::ChunkFrameCheck::kBadMagic:
        throw ProtocolError("shard protocol: bad frame magic "
                            "(stream corrupt or not a shard peer)");
      case state::ChunkFrameCheck::kTooLong:
        throw ProtocolError("shard protocol: frame length " +
                            std::to_string(c.bodyLen) +
                            " exceeds the 1 GiB sanity bound "
                            "(garbled header)");
      case state::ChunkFrameCheck::kBadCrc:
        break;
    }
    throw ProtocolError("shard protocol: frame CRC mismatch "
                        "(truncated or garbled header or payload)");
}

/** The payload of the whole, validated frame at @p data. */
Frame
frameAt(const std::uint8_t *data, const state::ChunkFrameCheck &c)
{
    const std::uint8_t *body = data + state::kChunkFrameHeaderBytes;
    Frame f;
    f.type = static_cast<MsgType>(c.kind);
    f.payload.assign(body, body + c.bodyLen);
    return f;
}

/** Read exactly @p size bytes; throws on EOF or error. */
void
readExact(int fd, std::uint8_t *out, std::size_t size, const char *what)
{
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = io::read(fd, out + off, size - off, "shard.recv",
                             nullptr);
        if (n == 0)
            throw ProtocolError(std::string("shard protocol: peer closed "
                                            "the pipe mid-") +
                                what + " (truncated frame)");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("shard protocol: read failed "
                                            "(") +
                                std::strerror(errno) + ")");
        }
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::kHello: return "hello";
      case MsgType::kHelloAck: return "hello-ack";
      case MsgType::kAssign: return "assign";
      case MsgType::kSnapshotPut: return "snapshot-put";
      case MsgType::kSnapshotData: return "snapshot-data";
      case MsgType::kResult: return "result";
      case MsgType::kHeartbeat: return "heartbeat";
      case MsgType::kShutdown: return "shutdown";
      case MsgType::kWorkerError: return "worker-error";
    }
    return "unknown";
}

void
writeFrame(int fd, MsgType type, const Buffer &payload)
{
    Buffer bytes;
    state::appendChunkFrame(bytes, static_cast<std::uint32_t>(type),
                            payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = io::write(fd, bytes.data() + off, bytes.size() - off,
                              "shard.send", nullptr);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("shard protocol: write of ") +
                                msgTypeName(type) + " frame failed: " +
                                std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
}

Frame
readFrame(int fd)
{
    // A clean EOF *before* any header byte is still an error for the
    // blocking reader: callers that treat peer-exit as normal catch
    // ProtocolError at the call site.
    Buffer bytes(state::kChunkFrameHeaderBytes);
    readExact(fd, bytes.data(), bytes.size(), "header");
    state::ChunkFrameCheck c;
    frameComplete(bytes.data(), bytes.size(), c); // magic + length bound
    bytes.resize(c.frameBytes());
    readExact(fd, bytes.data() + state::kChunkFrameHeaderBytes,
              bytes.size() - state::kChunkFrameHeaderBytes, "payload");
    frameComplete(bytes.data(), bytes.size(), c); // CRC
    return frameAt(bytes.data(), c);
}

void
FrameDecoder::feed(const std::uint8_t *data, std::size_t size)
{
    buf_.insert(buf_.end(), data, data + size);
}

bool
FrameDecoder::next(Frame &out)
{
    const std::uint8_t *data = buf_.data() + pos_;
    state::ChunkFrameCheck c;
    if (!frameComplete(data, buf_.size() - pos_, c))
        return false;
    out = frameAt(data, c);
    pos_ += c.frameBytes();
    // Compact once the consumed prefix dominates, so a long-lived
    // stream doesn't grow without bound.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
        pos_ = 0;
    }
    return true;
}

// ----------------------------------------------------- typed messages

Buffer
encodeHello(const HelloMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putU32(m.protocolVersion);
    w.putString(m.scenario);
    w.putU64(m.baseSeed);
    w.putI32(m.trialsPerPoint);
    w.putU64(m.numPoints);
    w.putU64(m.gridFp);
    return out;
}

HelloMsg
decodeHello(const Buffer &payload)
{
    Reader r = reader(payload);
    HelloMsg m;
    m.protocolVersion = r.getU32();
    if (m.protocolVersion != kProtocolVersion)
        throw ProtocolError(
            "shard protocol: version mismatch (peer speaks v" +
            std::to_string(m.protocolVersion) + ", this build v" +
            std::to_string(kProtocolVersion) + ")");
    m.scenario = r.getString();
    m.baseSeed = r.getU64();
    m.trialsPerPoint = r.getI32();
    m.numPoints = r.getU64();
    m.gridFp = r.getU64();
    return m;
}

Buffer
encodeHelloAck(const HelloAckMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putI32(m.pid);
    w.putU64(m.gridFp);
    return out;
}

HelloAckMsg
decodeHelloAck(const Buffer &payload)
{
    Reader r = reader(payload);
    HelloAckMsg m;
    m.pid = r.getI32();
    m.gridFp = r.getU64();
    return m;
}

Buffer
encodeAssign(const AssignMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putU32(static_cast<std::uint32_t>(m.pointIndices.size()));
    for (std::uint64_t idx : m.pointIndices)
        w.putU64(idx);
    return out;
}

AssignMsg
decodeAssign(const Buffer &payload)
{
    Reader r = reader(payload);
    AssignMsg m;
    std::uint32_t n = r.getU32();
    m.pointIndices.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        m.pointIndices.push_back(r.getU64());
    return m;
}

Buffer
encodeSnapshot(const SnapshotMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putString(m.key);
    w.putU64(m.bytes.size());
    w.putBytes(m.bytes.data(), m.bytes.size());
    return out;
}

SnapshotMsg
decodeSnapshot(const Buffer &payload)
{
    Reader r = reader(payload);
    SnapshotMsg m;
    m.key = r.getString();
    std::size_t n = static_cast<std::size_t>(r.getU64());
    const std::uint8_t *bytes = r.bytes(n);
    m.bytes.assign(bytes, bytes + n);
    return m;
}

Buffer
encodeResult(const ResultMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putU64(m.pointIndex);
    w.putU32(static_cast<std::uint32_t>(m.trials.size()));
    for (const exp::TrialRecord &rec : m.trials) {
        w.putI32(rec.trial);
        w.putU64(rec.seed);
        w.putU32(static_cast<std::uint32_t>(rec.metrics.size()));
        for (const auto &metric : rec.metrics) {
            w.putString(metric.first);
            w.putF64(metric.second);
        }
    }
    return out;
}

ResultMsg
decodeResult(const Buffer &payload)
{
    Reader r = reader(payload);
    ResultMsg m;
    m.pointIndex = r.getU64();
    std::uint32_t n_trials = r.getU32();
    m.trials.reserve(n_trials);
    for (std::uint32_t t = 0; t < n_trials; ++t) {
        exp::TrialRecord rec;
        rec.pointIndex = static_cast<std::size_t>(m.pointIndex);
        rec.trial = r.getI32();
        rec.seed = r.getU64();
        std::uint32_t n_metrics = r.getU32();
        for (std::uint32_t i = 0; i < n_metrics; ++i) {
            std::string name = r.getString();
            rec.metrics[name] = r.getF64();
        }
        m.trials.push_back(std::move(rec));
    }
    return m;
}

Buffer
encodeHeartbeat(const HeartbeatMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putU64(m.pointIndex);
    return out;
}

HeartbeatMsg
decodeHeartbeat(const Buffer &payload)
{
    Reader r = reader(payload);
    HeartbeatMsg m;
    m.pointIndex = r.getU64();
    return m;
}

Buffer
encodeError(const ErrorMsg &m)
{
    Buffer out;
    io::ByteWriter w(out);
    w.putString(m.message);
    return out;
}

ErrorMsg
decodeError(const Buffer &payload)
{
    Reader r = reader(payload);
    ErrorMsg m;
    m.message = r.getString();
    return m;
}

} // namespace shard
} // namespace ich
