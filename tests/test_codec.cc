/**
 * @file
 * Tests for the shared byte codec (io/codec.hh) and format pins for the
 * files written through it.
 *
 * The round-trip and truncation tests check the codec itself: every
 * width, bit-exact doubles, and a bounds-checked reader that throws the
 * caller's own error type. The pins hold the exact bytes of a small
 * StateArchive, one chunk frame, a two-point column store and a
 * columnar trace file, so a codec change that moves any on-disk byte
 * fails here before it can invalidate stored snapshots, resume stores
 * or trace spills.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exp/colstore.hh"
#include "exp/resume.hh"
#include "exp/scenario.hh"
#include "io/codec.hh"
#include "measure/trace.hh"
#include "shard/protocol.hh"
#include "state/archive.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace
{

using Bytes = std::vector<std::uint8_t>;
using state::ArchiveError;
using shard::ProtocolError;

std::string
hex(const Bytes &b)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (std::uint8_t c : b) {
        s += digits[c >> 4];
        s += digits[c & 0xF];
    }
    return s;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

double
fromBits(std::uint64_t b)
{
    double d;
    std::memcpy(&d, &b, sizeof d);
    return d;
}

const double kNaNPayload = fromBits(0x7FF800000000BEEFull);
const double kSubnormal = std::numeric_limits<double>::denorm_min() * 3;

/** Every width once, doubles chosen to break any non-bit-exact path. */
Bytes
sampleBody()
{
    Bytes out;
    io::ByteWriter w(out);
    w.putU8(0xA5);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI32(-7);
    w.putF64(-0.0);
    w.putF64(kNaNPayload);
    w.putF64(kSubnormal);
    w.putString("codec");
    w.putBytes("\x01\x02\x03", 3);
    return out;
}

template <class Error>
void
readSample(const Bytes &b, std::size_t len)
{
    io::ByteReader<Error> r(b.data(), len, "sample");
    r.getU8();
    r.getU32();
    r.getU64();
    r.getI32();
    r.getF64();
    r.getF64();
    r.getF64();
    r.getString();
    r.bytes(3);
    r.expectEnd();
}

TEST(Codec, RoundTripsEveryWidthBitExactly)
{
    Bytes b = sampleBody();
    io::ByteReader<ArchiveError> r(b.data(), b.size(), "sample");
    EXPECT_EQ(r.getU8(), 0xA5);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI32(), -7);
    double neg_zero = r.getF64();
    EXPECT_EQ(bitsOf(neg_zero), bitsOf(-0.0));
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(bitsOf(r.getF64()), 0x7FF800000000BEEFull);
    EXPECT_EQ(bitsOf(r.getF64()), bitsOf(kSubnormal));
    EXPECT_EQ(r.getString(), "codec");
    const std::uint8_t *raw = r.bytes(3);
    EXPECT_EQ(raw[0], 1);
    EXPECT_EQ(raw[2], 3);
    EXPECT_EQ(r.remaining(), 0u);
    r.expectEnd();
}

TEST(Codec, LittleEndianExplicitWidths)
{
    Bytes out;
    io::ByteWriter w(out);
    w.putU32(0x04030201u);
    w.putU64(0x0C0B0A0908070605ull);
    w.putI32(-1);
    w.putString("z");
    EXPECT_EQ(hex(out), "0102030405060708090a0b0cffffffff010000007a");

    w.patch32(0, 0xAABBCCDDu);
    EXPECT_EQ(hex(out).substr(0, 8), "ddccbbaa");
    EXPECT_EQ(w.size(), out.size());
}

TEST(Codec, EveryTruncationThrowsTheCallersError)
{
    Bytes b = sampleBody();
    EXPECT_NO_THROW(readSample<ArchiveError>(b, b.size()));
    for (std::size_t len = 0; len < b.size(); ++len) {
        SCOPED_TRACE("truncated to " + std::to_string(len));
        EXPECT_THROW(readSample<ArchiveError>(b, len), ArchiveError);
        EXPECT_THROW(readSample<ProtocolError>(b, len), ProtocolError);
    }
}

TEST(Codec, TrailingBytesFailExpectEnd)
{
    Bytes b = sampleBody();
    b.push_back(0);
    EXPECT_THROW(readSample<ArchiveError>(b, b.size()), ArchiveError);
    EXPECT_THROW(readSample<ProtocolError>(b, b.size()), ProtocolError);
}

TEST(Codec, StringLengthBeyondTheBodyThrows)
{
    Bytes out;
    io::ByteWriter w(out);
    w.putU32(1000); // announces far more bytes than follow
    w.putBytes("abc", 3);
    io::ByteReader<ArchiveError> r(out.data(), out.size(), "sample",
                                   "where");
    EXPECT_THROW(r.getString(), ArchiveError);
}

// Shard messages decode through the same reader: a truncated result
// payload throws ProtocolError at every cut, never reads past the end.
TEST(Codec, TruncatedShardResultThrowsProtocolError)
{
    shard::ResultMsg m;
    m.pointIndex = 3;
    exp::TrialRecord rec;
    rec.trial = 0;
    rec.seed = 42;
    rec.metrics["ber"] = -0.0;
    rec.metrics["cap"] = kSubnormal;
    m.trials = {rec};
    shard::Buffer payload = shard::encodeResult(m);
    shard::ResultMsg back = shard::decodeResult(payload);
    ASSERT_EQ(back.trials.size(), 1u);
    EXPECT_EQ(bitsOf(back.trials[0].metrics.at("ber")), bitsOf(-0.0));
    EXPECT_EQ(bitsOf(back.trials[0].metrics.at("cap")), bitsOf(kSubnormal));
    for (std::size_t len = 0; len < payload.size(); ++len) {
        shard::Buffer cut(payload.begin(),
                          payload.begin() + static_cast<long>(len));
        EXPECT_THROW(shard::decodeResult(cut), ProtocolError) << len;
    }
}

// ------------------------------------------------------ format pins
//
// These bytes were recorded before the codec existed; any difference
// is an on-disk format change, which must bump its format version.

TEST(FormatPin, StateArchive)
{
    state::ArchiveWriter w;
    w.beginSection("pin");
    w.putBool(true);
    w.putU8(0x7F);
    w.putU32(0x01020304u);
    w.putU64(0x1112131415161718ull);
    w.putI32(-2);
    w.putF64(-0.0);
    w.putString("ok");
    w.endSection();
    w.beginSection("b");
    w.putF64(kSubnormal);
    w.endSection();
    EXPECT_EQ(hex(w.finish()),
        "49434853020000004400000000000000a058611b0300000070696e27"
        "0000000101027f030403020104181716151413121105feffffff0600"
        "0000000000008007020000006f6b0100000062090000000603000000"
        "00000000");
}

TEST(FormatPin, ChunkFrame)
{
    state::Buffer out = {0xEE}; // frames append after existing bytes
    state::appendChunkFrame(out, 7, {0x01, 0x02, 0x03});
    EXPECT_EQ(hex(out), "ee49434b460700000003000000010203d6d7b661");
}

TEST(FormatPin, ColumnStore)
{
    exp::StoreHeader hdr;
    hdr.scenario = "pin";
    hdr.description = "d";
    hdr.baseSeed = 5;
    hdr.trialsPerPoint = 1;
    hdr.numPoints = 2;
    hdr.gridFp = 0x1234;

    std::map<std::size_t, std::vector<exp::TrialRecord>> points;
    exp::TrialRecord a;
    a.pointIndex = 0;
    a.trial = 0;
    a.seed = 11;
    a.metrics["a"] = 1.5;
    exp::TrialRecord b;
    b.pointIndex = 1;
    b.trial = 0;
    b.seed = 12;
    b.metrics["a"] = -0.0;
    b.metrics["b"] = kSubnormal;
    points[0] = {a};
    points[1] = {b};
    EXPECT_EQ(hex(exp::encodeColumnStore(hdr, points)),
        "49434b46010000002c000000010000000300000070696e0100000064"
        "05000000000000000100000002000000000000003412000000000000"
        "eff90a9d49434b460200000070000000020000000000000001000000"
        "61010000000100000062020000000000000000000000010000000000"
        "000000000000000000000b000000000000000c000000000000000200"
        "0000000000000302000000000000000000f83f000000000000008001"
        "000000020100000003000000000000009d85df6a49434b4603000000"
        "140000000200000000000000020000000000000002000000853b1879");
}

TEST(FormatPin, ResumeHashes)
{
    // Warm-snapshot file names and the grid fingerprint kept in resume
    // stores are FNV-1a 64 values written to disk; a hash change would
    // orphan every stored warm snapshot and resume store.
    EXPECT_EQ(exp::warmSnapshotPath("dir", "scn", ""),
              "dir/scn.warm-14650fb0739d0383.snap");
    EXPECT_EQ(exp::warmSnapshotPath("dir", "scn", "a"),
              "dir/scn.warm-44bd8ad473cd9906.snap");
    EXPECT_EQ(exp::warmSnapshotPath("dir", "scn", "warm|seed=7|burst=3"),
              "dir/scn.warm-3f7f2702ae3b0825.snap");
    EXPECT_EQ(exp::warmSnapshotPath("dir", "scn", "fig12-throughput/point-0"),
              "dir/scn.warm-9806b339afd84edd.snap");

    exp::ScenarioSpec spec;
    spec.name = "pin";
    spec.axes = {exp::axis("x", {1.0, 2.5}),
                 exp::axisLabeledValues("mode", {{"lo", 0.0}, {"hi", 1.0}})};
    EXPECT_EQ(exp::gridFingerprint(exp::expandPoints(spec)),
              0xc71d1223e59221bdULL);
}

TEST(FormatPin, ColumnarTrace)
{
    namespace fs = std::filesystem;
    fs::path path = fs::path(::testing::TempDir()) / "codec_pin.trace";
    Trace t("v");
    t.add(10, 0.5);
    t.add(20, -1.25);
    t.saveColumnar(path.string());
    state::Buffer bytes = state::readFile(path.string());
    fs::remove(path);
    EXPECT_EQ(hex(bytes),
        "49434b46010000001500000054524331010000000100000076020000"
        "0000000000bcf43c8949434b46020000002800000002000000000000"
        "000a000000000000001400000000000000000000000000e03f000000"
        "000000f4bfb8af28b8");
}

} // namespace
} // namespace ich
