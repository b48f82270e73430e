/**
 * @file
 * The torn-write matrix: truncate a recorded chunk file and a recorded
 * column store at EVERY byte offset and assert the recovery contract at
 * each one — readers recover exactly the whole-frame (whole-point)
 * prefix, the torn flag is set iff leftover bytes follow it, and
 * adoption (openAppend / ColumnStoreWriter::beginSweep) continues the
 * file to a result bit-identical to the never-torn run.
 *
 * This subsumes the old single-offset torn-tail tests: a kill can tear
 * a write at any byte, so the contract is only meaningful if it holds
 * at all of them.
 *
 * Also pins the corruption/tear distinction the torture campaign
 * (bench/torture_crashpoints) forced: a corrupted frame *length* must
 * not masquerade as a torn tail when intact frames follow it, and the
 * frame CRC covers the header, so kind/length bit-flips are loud.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/colstore.hh"
#include "exp/resume.hh"
#include "exp/scenario.hh"
#include "io/codec.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace
{

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string &name)
        : path(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const std::string &name) const
    {
        return (path / name).string();
    }
};

void
copyTruncated(const std::string &src, const std::string &dst,
              std::uint64_t len)
{
    fs::copy_file(src, dst, fs::copy_options::overwrite_existing);
    fs::resize_file(dst, len);
}

void
patchU32(const std::string &path, std::uint64_t offset, std::uint32_t v)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    std::vector<std::uint8_t> bytes;
    io::ByteWriter(bytes).putU32(v);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(bytes.data()), 4);
}

void
flipBitAt(const std::string &path, std::uint64_t offset, int bit)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ (1 << bit));
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

// ----------------------------------------------------- chunk-io matrix

TEST(TornMatrix, ChunkFileEveryTruncationOffset)
{
    TempDir dir("torn_matrix_chunkio");
    std::string master = dir.file("master.bin");

    const std::vector<state::Buffer> bodies = {
        {1, 2, 3, 4, 5},
        {},
        {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
    };
    {
        state::ChunkFileWriter w;
        w.create(master, /*durable=*/false);
        for (std::size_t i = 0; i < bodies.size(); ++i)
            w.append(static_cast<std::uint32_t>(10 + i), bodies[i]);
        w.close();
    }

    // Ground truth: the byte offset just past each frame.
    std::vector<std::uint64_t> frame_ends;
    {
        state::ChunkFileScanner scan(master);
        state::ChunkFrame frame;
        while (scan.next(frame))
            frame_ends.push_back(scan.validBytes());
        ASSERT_FALSE(scan.tornTail());
        ASSERT_EQ(frame_ends.size(), bodies.size());
    }
    const std::uint64_t full = fs::file_size(master);
    ASSERT_EQ(frame_ends.back(), full);

    const state::Buffer repair_body = {0xEE, 0xFF};
    for (std::uint64_t cut = 0; cut < full; ++cut) {
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                     std::to_string(full) + " bytes");
        std::string path = dir.file("cut.bin");
        copyTruncated(master, path, cut);

        std::size_t whole = 0;
        while (whole < frame_ends.size() && frame_ends[whole] <= cut)
            ++whole;
        std::uint64_t prefix = whole == 0 ? 0 : frame_ends[whole - 1];

        {
            state::ChunkFileScanner scan(path);
            state::ChunkFrame frame;
            std::size_t decoded = 0;
            while (scan.next(frame)) {
                ASSERT_LT(decoded, bodies.size());
                EXPECT_EQ(frame.kind, 10 + decoded);
                EXPECT_EQ(frame.body, bodies[decoded]);
                ++decoded;
            }
            EXPECT_EQ(decoded, whole);
            EXPECT_EQ(scan.tornTail(), cut != prefix);
            EXPECT_EQ(scan.validBytes(), prefix);
        }

        // Adoption: truncate the tear, append a frame, rescan — the
        // prefix plus the new frame, nothing else.
        {
            state::ChunkFileWriter w;
            w.openAppend(path, prefix, false);
            w.append(77, repair_body);
            w.close();
        }
        state::ChunkFileScanner scan(path);
        state::ChunkFrame frame;
        for (std::size_t i = 0; i < whole; ++i) {
            ASSERT_TRUE(scan.next(frame));
            EXPECT_EQ(frame.kind, 10 + i);
            EXPECT_EQ(frame.body, bodies[i]);
        }
        ASSERT_TRUE(scan.next(frame));
        EXPECT_EQ(frame.kind, 77u);
        EXPECT_EQ(frame.body, repair_body);
        EXPECT_FALSE(scan.next(frame));
        EXPECT_FALSE(scan.tornTail());
    }
}

// A tear is only legitimate at the very end of a file: a corrupted
// length field that "tears" mid-file with intact frames after it must
// be loud, or those frames would be dropped silently.
TEST(TornMatrix, CorruptLengthSwallowingFramesIsLoudNotTorn)
{
    TempDir dir("torn_matrix_len");
    std::string path = dir.file("frames.bin");
    {
        state::ChunkFileWriter w;
        w.create(path, false);
        w.append(1, {1, 2, 3});
        w.append(2, {4, 5, 6});
        w.append(3, {7, 8, 9});
        w.close();
    }
    // Frame 0's bodyLen claims more bytes than the file holds: the
    // apparent tear is followed by the two intact frames.
    patchU32(path, 8, 0x00FFFFFFu);

    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    EXPECT_THROW(scan.next(frame), state::ArchiveError);
}

// The frame CRC covers the header: a single flipped bit in the kind or
// length field fails the checksum instead of redefining the frame.
TEST(TornMatrix, HeaderBitFlipsFailTheFrameCrc)
{
    TempDir dir("torn_matrix_hdr");
    std::string master = dir.file("master.bin");
    {
        state::ChunkFileWriter w;
        w.create(master, false);
        w.append(2, {1, 2, 3, 4});
        // A second frame keeps the flipped length in-bounds; a flip on
        // a lone final frame reads as a torn tail instead, which
        // adoption truncates and recomputes — equally safe.
        w.append(5, {6, 7, 8, 9});
        w.close();
    }
    // kind low bit (2 -> 3: the colstore data -> footer confusion) and
    // a length bit small enough to keep the frame in-bounds.
    struct Flip {
        std::uint64_t offset;
        int bit;
    };
    for (Flip flip : {Flip{4, 0}, Flip{8, 1}}) {
        SCOPED_TRACE("flip byte " + std::to_string(flip.offset) +
                     " bit " + std::to_string(flip.bit));
        std::string path = dir.file("flip.bin");
        fs::copy_file(master, path,
                      fs::copy_options::overwrite_existing);
        flipBitAt(path, flip.offset, flip.bit);

        state::ChunkFileScanner scan(path);
        state::ChunkFrame frame;
        EXPECT_THROW(scan.next(frame), state::ArchiveError);
    }
}

// ----------------------------------------------------- colstore matrix

exp::SweepMeta
storeMeta()
{
    exp::ScenarioSpec spec;
    spec.name = "torn-matrix-grid";
    spec.description = "torn-write matrix sweep";
    spec.axes = {exp::axis("x", {1.0, 2.0, 3.0})};
    exp::SweepMeta meta;
    meta.scenario = spec.name;
    meta.description = spec.description;
    meta.baseSeed = 7;
    meta.trialsPerPoint = 2;
    meta.points = exp::expandPoints(spec);
    meta.gridFp = exp::gridFingerprint(meta.points);
    return meta;
}

std::vector<exp::TrialRecord>
storeRecords(const exp::SweepMeta &meta, std::size_t idx)
{
    std::vector<exp::TrialRecord> recs;
    for (int t = 0; t < meta.trialsPerPoint; ++t) {
        exp::TrialRecord rec;
        rec.pointIndex = idx;
        rec.trial = t;
        rec.seed = exp::deriveTrialSeed(
            meta.baseSeed,
            idx * static_cast<std::size_t>(meta.trialsPerPoint) +
                static_cast<std::size_t>(t));
        rec.metrics["ber"] =
            (idx == 0 && t == 0) ? -0.0 : 0.25 * (idx + 1) + 0.01 * t;
        rec.metrics["tp"] = (idx == 1 && t == 1)
                                ? 3.0e-310
                                : 1e5 / (1.0 + idx + t);
        recs.push_back(std::move(rec));
    }
    return recs;
}

void
expectBitEqual(const std::vector<exp::TrialRecord> &a,
               const std::vector<exp::TrialRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pointIndex, b[i].pointIndex);
        EXPECT_EQ(a[i].trial, b[i].trial);
        EXPECT_EQ(a[i].seed, b[i].seed);
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        auto ia = a[i].metrics.begin();
        auto ib = b[i].metrics.begin();
        for (; ia != a[i].metrics.end(); ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first);
            EXPECT_EQ(io::f64Bits(ia->second), io::f64Bits(ib->second));
        }
    }
}

TEST(TornMatrix, ColumnStoreEveryTruncationOffset)
{
    TempDir dir("torn_matrix_colstore");
    std::string master = dir.file("master.colstore");
    exp::SweepMeta meta = storeMeta();

    {
        // Durable mode: one data frame per point, so every truncation
        // lands either between points or inside the last one.
        exp::ColumnStoreWriter::Options opts;
        opts.durable = true;
        exp::ColumnStoreWriter w(master, opts);
        w.beginSweep(meta);
        for (std::size_t idx = 0; idx < meta.numPoints(); ++idx) {
            auto recs = storeRecords(meta, idx);
            w.acceptPoint(idx, recs.data(), recs.size());
        }
        w.endSweep();
    }

    // Ground truth: the header frame's end and each data frame's end.
    std::uint64_t header_end = 0;
    std::vector<std::uint64_t> data_ends;
    {
        state::ChunkFileScanner scan(master);
        state::ChunkFrame frame;
        while (scan.next(frame)) {
            if (frame.kind == exp::kColChunkHeader)
                header_end = scan.validBytes();
            else if (frame.kind == exp::kColChunkData)
                data_ends.push_back(scan.validBytes());
        }
        ASSERT_GT(header_end, 0u);
        ASSERT_EQ(data_ends.size(), meta.numPoints());
    }
    const std::uint64_t full = fs::file_size(master);

    for (std::uint64_t cut = 0; cut < full; ++cut) {
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                     std::to_string(full) + " bytes");
        std::string path = dir.file("cut.colstore");
        copyTruncated(master, path, cut);

        if (cut < header_end) {
            // Not even a whole header: the reader must refuse loudly —
            // there is no sweep identity to trust.
            EXPECT_THROW(exp::ColumnStoreReader r(path),
                         state::ArchiveError);
            continue;
        }

        std::size_t whole = 0;
        while (whole < data_ends.size() && data_ends[whole] <= cut)
            ++whole;

        {
            exp::ColumnStoreReader r(path);
            EXPECT_TRUE(r.matches(meta));
            EXPECT_EQ(r.completedPoints(), whole);
            for (std::size_t idx = 0; idx < whole; ++idx)
                expectBitEqual(r.readPoint(idx),
                               storeRecords(meta, idx));
        }

        // Adoption is the resume path: beginSweep() truncates the tear,
        // the missing points are recomputed, and the result must be
        // bit-identical to the never-torn store.
        {
            exp::ColumnStoreWriter::Options opts;
            opts.durable = true;
            exp::ColumnStoreWriter w(path, opts);
            w.beginSweep(meta);
            EXPECT_EQ(w.adoptedPoints(), whole);
            for (std::size_t idx = whole; idx < meta.numPoints(); ++idx) {
                auto recs = storeRecords(meta, idx);
                w.acceptPoint(idx, recs.data(), recs.size());
            }
            w.endSweep();
        }
        exp::ColumnStoreReader full_reader(path);
        EXPECT_FALSE(full_reader.tornTail());
        EXPECT_TRUE(full_reader.cleanFooter());
        ASSERT_EQ(full_reader.completedPoints(), meta.numPoints());
        for (std::size_t idx = 0; idx < meta.numPoints(); ++idx)
            expectBitEqual(full_reader.readPoint(idx),
                           storeRecords(meta, idx));
    }
}

} // namespace
} // namespace ich
