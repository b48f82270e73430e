#include "measure/trace.hh"

#include <algorithm>
#include <sstream>

#include "io/codec.hh"
#include "state/chunkio.hh"

namespace ich
{

namespace
{

/** Points per data frame: bounds transient decode memory. */
constexpr std::size_t kTracePointsPerChunk = 65536;

using Reader = io::ByteReader<state::ArchiveError>;

Reader
reader(const state::Buffer &body, const std::string &path)
{
    return Reader(body.data(), body.size(), "trace chunk", path.c_str());
}

} // namespace

double
Trace::minValue() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_)
        m = std::min(m, p.value);
    return m;
}

double
Trace::maxValue() const
{
    double m = points_.empty() ? 0.0 : points_.front().value;
    for (const auto &p : points_)
        m = std::max(m, p.value);
    return m;
}

double
Trace::meanValue() const
{
    if (points_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : points_)
        sum += p.value;
    return sum / points_.size();
}

double
Trace::valueAt(Time t) const
{
    if (sorted_) {
        auto it = std::upper_bound(
            points_.begin(), points_.end(), t,
            [](Time lhs, const TracePoint &p) { return lhs < p.time; });
        if (it == points_.begin())
            return 0.0;
        return std::prev(it)->value;
    }
    // Out-of-order hand-built trace: the historical stop-at-first-
    // later-sample scan (kept bit-compatible rather than "fixed" —
    // sorted recordings never take this path).
    double v = 0.0;
    for (const auto &p : points_) {
        if (p.time > t)
            break;
        v = p.value;
    }
    return v;
}

std::string
Trace::toRows(std::size_t max_rows) const
{
    std::ostringstream os;
    // Decimation indexes straight to every strided sample — O(rows),
    // never a scan of the full series.
    std::size_t stride = std::max<std::size_t>(
        1, points_.size() / std::max<std::size_t>(1, max_rows));
    for (std::size_t i = 0; i < points_.size(); i += stride) {
        os << toMicroseconds(points_[i].time) << " " << points_[i].value
           << "\n";
    }
    return os.str();
}

void
Trace::saveColumnar(const std::string &path) const
{
    state::ChunkFileWriter w;
    w.create(path, /*durable=*/false);

    state::Buffer header;
    io::ByteWriter hw(header);
    hw.putU32(kTraceFormatTag);
    hw.putU32(1); // format version
    hw.putString(name_);
    hw.putU64(points_.size());
    w.append(kTraceChunkHeader, header);

    for (std::size_t base = 0; base < points_.size();
         base += kTracePointsPerChunk) {
        std::size_t n =
            std::min(kTracePointsPerChunk, points_.size() - base);
        state::Buffer body;
        body.reserve(8 + 16 * n);
        io::ByteWriter bw(body);
        bw.putU64(n);
        for (std::size_t i = 0; i < n; ++i)
            bw.putU64(points_[base + i].time);
        for (std::size_t i = 0; i < n; ++i)
            bw.putF64(points_[base + i].value);
        w.append(kTraceChunkData, body);
    }
    w.close();
}

Trace
Trace::loadColumnar(const std::string &path)
{
    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;

    if (!scan.next(frame) || frame.kind != kTraceChunkHeader)
        throw state::ArchiveError("trace file '" + path +
                                  "': missing header chunk");
    Reader h = reader(frame.body, path);
    if (h.getU32() != kTraceFormatTag)
        throw state::ArchiveError("trace file '" + path +
                                  "': not a columnar trace");
    std::uint32_t version = h.getU32();
    if (version != 1)
        throw state::ArchiveError("trace file '" + path +
                                  "': unsupported version " +
                                  std::to_string(version));
    Trace t(h.getString());
    std::uint64_t declared = h.getU64();
    h.expectEnd();
    t.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(declared, 1u << 20)));

    while (scan.next(frame)) {
        if (frame.kind == kTraceChunkHeader)
            throw state::ArchiveError("trace file '" + path +
                                      "': duplicate header chunk");
        if (frame.kind != kTraceChunkData)
            throw state::ArchiveError("trace file '" + path +
                                      "': unknown chunk kind " +
                                      std::to_string(frame.kind));
        Reader c = reader(frame.body, path);
        std::uint64_t n = c.getU64();
        std::vector<Time> times(static_cast<std::size_t>(n));
        for (auto &tm : times)
            tm = c.getU64();
        for (std::size_t i = 0; i < times.size(); ++i)
            t.add(times[i], c.getF64());
        c.expectEnd();
    }
    // A torn tail (killed mid-save) drops to the intact prefix, same
    // contract as the result store; a complete-but-corrupt frame threw
    // inside next().
    return t;
}

} // namespace ich
