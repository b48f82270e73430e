/**
 * @file
 * StateArchive: the versioned binary container for simulator snapshots.
 *
 * Layout (all integers little-endian, widths explicit):
 *
 *   header   u32 magic "ICHS" | u32 version | u64 payloadLen | u32 crc32
 *   payload  sequence of sections:
 *            u32 nameLen | name bytes | u32 bodyLen | body
 *   body     sequence of tagged values: u8 typeTag | value bytes
 *
 * The CRC covers the whole payload, so truncation and bit-rot surface as
 * a clean ArchiveError before any component sees bytes. Every value
 * carries a one-byte type tag, so a reader that drifts out of sync with
 * the writer (schema skew inside one version) fails loudly instead of
 * reinterpreting memory. Doubles are stored as raw IEEE-754 bit
 * patterns, so state round-trips bit-exactly — the foundation of the
 * byte-identical restore guarantee.
 */

#ifndef ICH_STATE_ARCHIVE_HH
#define ICH_STATE_ARCHIVE_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/codec.hh"

namespace ich
{
namespace state
{

/** Any structural problem with an archive: truncation, CRC, version. */
class ArchiveError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raw archive bytes (in memory or bound for a .snap file). */
using Buffer = std::vector<std::uint8_t>;

/** "ICHS" */
constexpr std::uint32_t kArchiveMagic = 0x53484349u;
constexpr std::uint32_t kArchiveVersion = 2; ///< v2: Ticker rate-group
                                             ///< section + lazy-decay
                                             ///< PowerGate/PowerLimiter
                                             ///< layouts

/**
 * CRC-32 (IEEE 802.3 polynomial) of @p data. @p seed chains calls over
 * discontiguous buffers: crc32(b, nb, crc32(a, na)) == crc32(a || b).
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);

/**
 * Write @p data to @p path atomically: the bytes land in @p path.tmp
 * first and are renamed over the target, so a kill mid-write never
 * leaves a truncated file at the final name.
 */
void atomicWriteFile(const std::string &path, const Buffer &data);

/** Read a whole file; throws ArchiveError when unreadable. */
Buffer readFile(const std::string &path);

/**
 * Builds an archive: named sections containing tagged typed values.
 */
class ArchiveWriter
{
  public:
    /** Open a section; sections cannot nest. */
    void beginSection(const std::string &name);
    void endSection();

    /** @name Tagged primitive values (section must be open) */
    ///@{
    void putBool(bool v);
    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI32(std::int32_t v);
    /** Raw IEEE-754 bits: bit-exact round trip, NaN payloads included. */
    void putF64(double v);
    void putString(const std::string &v);
    ///@}

    /** Finished archive (header + payload + CRC). */
    Buffer finish() const;

    /** finish() + atomicWriteFile(). */
    void writeFile(const std::string &path) const;

  private:
    Buffer payload_;
    bool inSection_ = false;
    std::size_t bodyLenPos_ = 0; ///< offset of the open section's bodyLen

    /** Writes @p tag; the returned writer appends the value. */
    io::ByteWriter tagged(std::uint8_t tag);
};

/**
 * Cursor over one section's body; values must be read back in the order
 * (and with the types) they were written.
 */
class SectionReader
{
  public:
    /** @p name must outlive the reader (ArchiveReader's index key). */
    SectionReader(const std::string &name, const std::uint8_t *begin,
                  std::size_t size);

    bool getBool();
    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int32_t getI32();
    double getF64();
    std::string getString();

    /** Bytes not yet consumed (0 when fully read). */
    std::size_t remaining() const { return in_.remaining(); }

    const std::string &name() const { return name_; }

  private:
    using Reader = io::ByteReader<ArchiveError>;

    std::string name_;
    Reader in_;

    /** Consume the type tag (throwing on a mismatch); read the value
     *  from the returned reader. */
    Reader &expectTag(std::uint8_t tag, const char *what);
};

/**
 * Parses and validates an archive (magic, version, length, CRC) and
 * indexes its sections by name.
 */
class ArchiveReader
{
  public:
    /** Takes ownership of the bytes; throws ArchiveError when invalid. */
    explicit ArchiveReader(Buffer data);

    static ArchiveReader fromFile(const std::string &path);

    bool has(const std::string &name) const;

    /** Open a section by name; throws ArchiveError when absent. */
    SectionReader open(const std::string &name) const;

    std::vector<std::string> sectionNames() const;

  private:
    Buffer data_;
    /** name -> (payload offset, body length) */
    std::map<std::string, std::pair<std::size_t, std::size_t>> index_;
};

} // namespace state
} // namespace ich

#endif // ICH_STATE_ARCHIVE_HH
