/**
 * @file
 * CRC-framed chunks: the one frame format of the repository. Chunk
 * files carry the columnar result store (exp/colstore) and columnar
 * trace spills (measure/trace); the shard wire (shard/protocol) sends
 * the same frames over pipes, with the message type as the kind.
 *
 * A chunk file is a flat sequence of frames:
 *
 *   frame   u32 magic "ICKF" | u32 kind | u32 bodyLen | body | u32 crc32
 *
 * All integers are little-endian with explicit widths, and the CRC
 * (state::crc32, same polynomial as StateArchive) covers the *whole
 * frame* — magic, kind, bodyLen, and body. Covering the header matters:
 * a flipped bit in bodyLen would otherwise masquerade as a torn tail
 * (swallowing every frame after it), and a flipped bit in kind would
 * reinterpret the body under another chunk type — both silent-data-loss
 * modes found by the crash-point torture campaign
 * (bench/torture_crashpoints). `kind` is producer-defined (header/data/
 * footer chunk types).
 *
 * Durability discipline — the append-only complement of
 * atomicWriteFile's write-temp-and-rename:
 *
 *  - A writer appends whole frames; in durable mode every append is
 *    fsync'd (and the directory entry is fsync'd once at creation), so
 *    a completed append survives kill -9.
 *  - A kill mid-append leaves a *torn tail*: an incomplete final frame.
 *    The scanner detects it (not enough bytes for the announced frame),
 *    reports it via tornTail(), and stops cleanly — every frame before
 *    the tear is intact by construction.
 *  - A torn tail is only ever the *last* thing in a file: appends are
 *    sequential, so nothing can land after an unfinished frame. If an
 *    intact frame parses after an apparent tear, the "tear" is really a
 *    corrupted length field, and the scanner raises ArchiveError
 *    instead of silently dropping the good frames behind it.
 *  - A *complete* frame with a bad magic or CRC is corruption, not a
 *    tear, and raises ArchiveError: bytes after it can't be trusted.
 *  - Reopening for append truncates the torn tail first, so the file
 *    returns to a frame boundary before new frames land.
 */

#ifndef ICH_STATE_CHUNKIO_HH
#define ICH_STATE_CHUNKIO_HH

#include <cstdint>
#include <string>

#include "state/archive.hh"

namespace ich
{
namespace state
{

/** "ICKF" — guards every frame boundary. */
constexpr std::uint32_t kChunkFrameMagic = 0x464B4349u;
/** magic | kind | bodyLen in front of the body. */
constexpr std::size_t kChunkFrameHeaderBytes = 4 + 4 + 4;
/** Header plus the crc32 trailer: a frame's size around its body. */
constexpr std::size_t kChunkFrameOverheadBytes = kChunkFrameHeaderBytes + 4;

/** One decoded frame. */
struct ChunkFrame {
    std::uint32_t kind = 0;
    Buffer body;
};

/** Serialize one frame onto @p out (in-memory composition). */
void appendChunkFrame(Buffer &out, std::uint32_t kind, const Buffer &body);

/** What checkChunkFrame() found at the front of a byte range. */
struct ChunkFrameCheck {
    enum Status {
        kIncomplete, ///< no complete frame yet (header or body missing)
        kComplete,   ///< a whole frame whose CRC matches
        kBadMagic,
        kTooLong,    ///< bodyLen above the caller's bound
        kBadCrc,
    };
    Status status = kIncomplete;
    std::uint32_t kind = 0;    ///< valid once the header is present
    std::uint32_t bodyLen = 0; ///< valid once the header is present
    std::size_t frameBytes() const
    {
        return kChunkFrameOverheadBytes + bodyLen;
    }
};

/**
 * The one frame validator: every reader of chunk frames (the file
 * scanner, its torn-tail check and the shard pipe decoders) calls it.
 * Inspects the @p size bytes at @p data: a header is checked as soon
 * as it is present (magic, then bodyLen against @p max_body), the CRC
 * once the whole frame is. Callers map the status to their own error.
 */
ChunkFrameCheck checkChunkFrame(const std::uint8_t *data, std::size_t size,
                                std::uint64_t max_body = UINT32_MAX);

/**
 * Appends frames to a chunk file. Not thread-safe; callers serialize.
 */
class ChunkFileWriter
{
  public:
    ChunkFileWriter() = default;
    ~ChunkFileWriter();
    ChunkFileWriter(const ChunkFileWriter &) = delete;
    ChunkFileWriter &operator=(const ChunkFileWriter &) = delete;

    /**
     * Create (or truncate) @p path, creating parent directories. When
     * @p durable, every append() is fsync'd and the directory entry is
     * fsync'd now, so appended frames survive kill -9.
     */
    void create(const std::string &path, bool durable);

    /**
     * Open an existing file for append, truncating it to
     * @p valid_bytes first (dropping a torn tail so appends resume on
     * a frame boundary). @p valid_bytes comes from a prior scan
     * (ChunkFileScanner::validBytes()).
     */
    void openAppend(const std::string &path, std::uint64_t valid_bytes,
                    bool durable);

    /** Append one frame (and fsync it in durable mode). */
    void append(std::uint32_t kind, const Buffer &body);

    /**
     * fsync the file now regardless of durability mode — lets a
     * non-durable writer amortize one fsync across a batch of appends
     * instead of paying one per frame. No-op on a closed writer.
     */
    void sync();

    void close();
    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    bool durable_ = false;
    std::string path_;

    void writeAll(const Buffer &bytes);
};

/**
 * Sequential frame reader with torn-tail detection.
 */
class ChunkFileScanner
{
  public:
    /** Throws ArchiveError when the file cannot be opened. */
    explicit ChunkFileScanner(const std::string &path);
    ~ChunkFileScanner();
    ChunkFileScanner(const ChunkFileScanner &) = delete;
    ChunkFileScanner &operator=(const ChunkFileScanner &) = delete;

    /**
     * Read the next frame. Returns false at a clean EOF *or* at a torn
     * tail (tornTail() distinguishes). Throws ArchiveError on a
     * complete frame whose magic or CRC is wrong (corruption).
     */
    bool next(ChunkFrame &frame);

    /** True when the file ends in an incomplete frame. */
    bool tornTail() const { return torn_; }

    /** Offset just past the last successfully decoded frame. */
    std::uint64_t validBytes() const { return valid_; }

    /** Offset of the frame returned by the most recent next(). */
    std::uint64_t lastFrameOffset() const { return lastOff_; }

    std::uint64_t fileSize() const { return size_; }

    /** Reposition to a frame offset previously observed. */
    void seekTo(std::uint64_t offset);

  private:
    int fd_ = -1;
    std::string path_;
    std::uint64_t off_ = 0;
    std::uint64_t size_ = 0;
    std::uint64_t valid_ = 0;
    std::uint64_t lastOff_ = 0;
    bool torn_ = false;
};

} // namespace state
} // namespace ich

#endif // ICH_STATE_CHUNKIO_HH
