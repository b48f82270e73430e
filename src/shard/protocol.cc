#include "shard/protocol.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "state/archive.hh" // state::crc32

namespace ich
{
namespace shard
{

namespace
{

void
push32(Buffer &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
push64(Buffer &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
peek32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
peek64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Validate a frame header and return its payload length. Every decode
 * path (blocking reads and the incremental decoder) funnels through
 * here so garbage is rejected with one consistent vocabulary.
 */
std::uint64_t
checkHeader(const std::uint8_t *hdr)
{
    if (peek32(hdr) != kFrameMagic)
        throw ProtocolError("shard protocol: bad frame magic "
                            "(stream corrupt or not a shard peer)");
    std::uint64_t len = peek64(hdr + 8);
    if (len > kMaxFrameBytes)
        throw ProtocolError("shard protocol: frame length " +
                            std::to_string(len) +
                            " exceeds the 1 GiB sanity bound "
                            "(garbled header)");
    return len;
}

Frame
finishFrame(const std::uint8_t *hdr, Buffer payload)
{
    std::uint32_t expect_crc = peek32(hdr + 16);
    std::uint32_t got_crc = state::crc32(payload.data(), payload.size(),
                                         state::crc32(hdr, 16));
    if (expect_crc != got_crc)
        throw ProtocolError("shard protocol: frame CRC mismatch "
                            "(truncated or garbled header or payload)");
    Frame f;
    f.type = static_cast<MsgType>(peek32(hdr + 4));
    f.payload = std::move(payload);
    return f;
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

Buffer
encodeFrame(MsgType type, const Buffer &payload)
{
    Buffer out;
    out.reserve(kFrameHeaderBytes + payload.size());
    push32(out, kFrameMagic);
    push32(out, static_cast<std::uint32_t>(type));
    push64(out, payload.size());
    push32(out, state::crc32(payload.data(), payload.size(),
                             state::crc32(out.data(), 16)));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

void
writeFrame(int fd, MsgType type, const Buffer &payload)
{
    Buffer bytes = encodeFrame(type, payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
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

namespace
{

/** Read exactly @p size bytes; throws on EOF or error. */
void
readExact(int fd, std::uint8_t *out, std::size_t size, const char *what)
{
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::read(fd, out + off, size - off);
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

Frame
readFrame(int fd)
{
    std::uint8_t hdr[kFrameHeaderBytes];
    // A clean EOF *before* any header byte is still an error for the
    // blocking reader: callers that treat peer-exit as normal catch
    // ProtocolError at the call site.
    readExact(fd, hdr, sizeof hdr, "header");
    std::uint64_t len = checkHeader(hdr);
    Buffer payload(static_cast<std::size_t>(len));
    if (len > 0)
        readExact(fd, payload.data(), payload.size(), "payload");
    return finishFrame(hdr, std::move(payload));
}

void
FrameDecoder::feed(const std::uint8_t *data, std::size_t size)
{
    buf_.insert(buf_.end(), data, data + size);
}

bool
FrameDecoder::next(Frame &out)
{
    if (buf_.size() - pos_ < kFrameHeaderBytes)
        return false;
    const std::uint8_t *hdr = buf_.data() + pos_;
    std::uint64_t len = checkHeader(hdr);
    if (buf_.size() - pos_ < kFrameHeaderBytes + len)
        return false;
    Buffer payload(hdr + kFrameHeaderBytes,
                   hdr + kFrameHeaderBytes + static_cast<std::size_t>(len));
    out = finishFrame(hdr, std::move(payload));
    pos_ += kFrameHeaderBytes + static_cast<std::size_t>(len);
    // Compact once the consumed prefix dominates, so a long-lived
    // stream doesn't grow without bound.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
        pos_ = 0;
    }
    return true;
}

// ----------------------------------------------------------- wire I/O

void
WireWriter::putU32(std::uint32_t v)
{
    push32(buf_, v);
}

void
WireWriter::putU64(std::uint64_t v)
{
    push64(buf_, v);
}

void
WireWriter::putI32(std::int32_t v)
{
    push32(buf_, static_cast<std::uint32_t>(v));
}

void
WireWriter::putF64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof bits);
    push64(buf_, bits);
}

void
WireWriter::putString(const std::string &v)
{
    push32(buf_, static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void
WireWriter::putBytes(const Buffer &v)
{
    push64(buf_, v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void
WireReader::need(std::size_t n) const
{
    if (remaining() < n)
        throw ProtocolError("shard protocol: message payload truncated");
}

std::uint32_t
WireReader::getU32()
{
    need(4);
    std::uint32_t v = peek32(p_);
    p_ += 4;
    return v;
}

std::uint64_t
WireReader::getU64()
{
    need(8);
    std::uint64_t v = peek64(p_);
    p_ += 8;
    return v;
}

std::int32_t
WireReader::getI32()
{
    return static_cast<std::int32_t>(getU32());
}

double
WireReader::getF64()
{
    std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
WireReader::getString()
{
    std::uint32_t len = getU32();
    need(len);
    std::string s(reinterpret_cast<const char *>(p_), len);
    p_ += len;
    return s;
}

Buffer
WireReader::getBytes()
{
    std::uint64_t len = getU64();
    need(static_cast<std::size_t>(len));
    Buffer b(p_, p_ + static_cast<std::size_t>(len));
    p_ += static_cast<std::size_t>(len);
    return b;
}

// ----------------------------------------------------- typed messages

Buffer
encodeHello(const HelloMsg &m)
{
    WireWriter w;
    w.putU32(m.protocolVersion);
    w.putString(m.scenario);
    w.putU64(m.baseSeed);
    w.putI32(m.trialsPerPoint);
    w.putU64(m.numPoints);
    w.putU64(m.gridFp);
    return w.take();
}

HelloMsg
decodeHello(const Buffer &payload)
{
    WireReader r(payload);
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
    WireWriter w;
    w.putI32(m.pid);
    w.putU64(m.gridFp);
    return w.take();
}

HelloAckMsg
decodeHelloAck(const Buffer &payload)
{
    WireReader r(payload);
    HelloAckMsg m;
    m.pid = r.getI32();
    m.gridFp = r.getU64();
    return m;
}

Buffer
encodeAssign(const AssignMsg &m)
{
    WireWriter w;
    w.putU32(static_cast<std::uint32_t>(m.pointIndices.size()));
    for (std::uint64_t idx : m.pointIndices)
        w.putU64(idx);
    return w.take();
}

AssignMsg
decodeAssign(const Buffer &payload)
{
    WireReader r(payload);
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
    WireWriter w;
    w.putString(m.key);
    w.putBytes(m.bytes);
    return w.take();
}

SnapshotMsg
decodeSnapshot(const Buffer &payload)
{
    WireReader r(payload);
    SnapshotMsg m;
    m.key = r.getString();
    m.bytes = r.getBytes();
    return m;
}

Buffer
encodeResult(const ResultMsg &m)
{
    WireWriter w;
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
    return w.take();
}

ResultMsg
decodeResult(const Buffer &payload)
{
    WireReader r(payload);
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
    WireWriter w;
    w.putU64(m.pointIndex);
    return w.take();
}

HeartbeatMsg
decodeHeartbeat(const Buffer &payload)
{
    WireReader r(payload);
    HeartbeatMsg m;
    m.pointIndex = r.getU64();
    return m;
}

Buffer
encodeError(const ErrorMsg &m)
{
    WireWriter w;
    w.putString(m.message);
    return w.take();
}

ErrorMsg
decodeError(const Buffer &payload)
{
    WireReader r(payload);
    ErrorMsg m;
    m.message = r.getString();
    return m;
}

} // namespace shard
} // namespace ich
