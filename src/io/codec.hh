/**
 * @file
 * The one byte codec every on-disk and on-pipe format is written with:
 * state archives, chunk frames, column stores, columnar traces and the
 * shard wire.
 *
 * The wire convention, everywhere: integers are little-endian with
 * explicit widths (u8/u32/u64; i32 as its two's-complement u32), doubles
 * are their raw IEEE-754 bit patterns (so -0.0, NaN payloads and
 * subnormals round-trip bit-exactly), and a string is a u32 length
 * followed by its bytes. Formats that carry more structure (type tags,
 * sections, frames) layer it on top of these primitives.
 *
 * ByteWriter appends to a caller-owned buffer. ByteReader is a
 * bounds-checked cursor over (ptr, len): a read past the end throws the
 * caller's own error type (state::ArchiveError for files,
 * shard::ProtocolError for the pipe) instead of touching the bytes, so
 * existing catch sites see the same errors they always did. The error
 * message is built only on the throw path; everything else is inline.
 */

#ifndef ICH_IO_CODEC_HH
#define ICH_IO_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ich
{
namespace io
{

/** Raw IEEE-754 bits of @p v: the wire form of every double. */
inline std::uint64_t
f64Bits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** Inverse of f64Bits(). */
inline double
f64FromBits(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

/**
 * Start state of fnv1a(). It is 1469598103934665603, one digit short of
 * the published FNV-1a 64 basis 14695981039346656037. Warm-snapshot
 * file names and resume-store grid fingerprints on disk are built on
 * it, so it stays.
 */
constexpr std::uint64_t kFnv1aSeed = 1469598103934665603ull;

/** Fold @p n bytes at @p p into the FNV-1a 64 state @p h. */
inline std::uint64_t
fnv1a(const void *p, std::size_t n, std::uint64_t h)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Fold the bytes of @p s (no terminator) into @p h. */
inline std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = kFnv1aSeed)
{
    return fnv1a(s.data(), s.size(), h);
}

/** Fold @p v as its 8 little-endian bytes into @p h. */
inline std::uint64_t
fnv1aU64(std::uint64_t v, std::uint64_t h)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

/** Appends explicit-width little-endian values to a byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(&out) {}

    void putU8(std::uint8_t v) { out_->push_back(v); }
    void putU32(std::uint32_t v)
    {
        std::uint8_t b[4];
        for (int i = 0; i < 4; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        out_->insert(out_->end(), b, b + 4);
    }
    void putU64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        out_->insert(out_->end(), b, b + 8);
    }
    void putI32(std::int32_t v) { putU32(static_cast<std::uint32_t>(v)); }
    void putF64(double v) { putU64(f64Bits(v)); }
    /** u32 length, then the bytes. */
    void putString(const std::string &s)
    {
        putU32(static_cast<std::uint32_t>(s.size()));
        putBytes(s.data(), s.size());
    }
    /** Raw bytes, no length prefix. */
    void putBytes(const void *p, std::size_t n)
    {
        const std::uint8_t *b = static_cast<const std::uint8_t *>(p);
        out_->insert(out_->end(), b, b + n);
    }

    /** Overwrite the u32 at @p pos (a length back-patch). */
    void patch32(std::size_t pos, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            (*out_)[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    std::size_t size() const { return out_->size(); }

  private:
    std::vector<std::uint8_t> *out_;
};

/**
 * Bounds-checked little-endian cursor over (ptr, len). Every get that
 * would read past the end throws Error; @p what names the format in
 * the message and the optional @p where (a path or section name) says
 * which instance. Both must outlive the reader.
 */
template <class Error>
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *p, std::size_t n, const char *what,
               const char *where = nullptr)
        : p_(p), end_(p + n), what_(what), where_(where)
    {
    }

    std::uint8_t getU8() { return *take(1); }
    std::uint32_t getU32()
    {
        const std::uint8_t *b = take(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }
    std::uint64_t getU64()
    {
        const std::uint8_t *b = take(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }
    std::int32_t getI32() { return static_cast<std::int32_t>(getU32()); }
    double getF64() { return f64FromBits(getU64()); }
    std::string getString()
    {
        std::uint32_t n = getU32();
        return std::string(reinterpret_cast<const char *>(take(n)), n);
    }
    /** Consume @p n raw bytes; returns where they start. */
    const std::uint8_t *bytes(std::size_t n) { return take(n); }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    /** Throws unless every byte was consumed. */
    void expectEnd() const
    {
        if (p_ != end_)
            fail(0);
    }

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    const char *what_;
    const char *where_;

    const std::uint8_t *take(std::size_t n)
    {
        if (remaining() < n)
            fail(n);
        const std::uint8_t *b = p_;
        p_ += n;
        return b;
    }

    /** Truncated when @p wanted > 0, trailing bytes otherwise. Out of
     *  line and cold, so the get paths stay a compare and a load. */
    [[noreturn]] __attribute__((noinline, cold)) void
    fail(std::size_t wanted) const
    {
        std::string msg = std::string(what_) + ": ";
        if (wanted > 0)
            msg += "truncated (" + std::to_string(wanted) +
                   " bytes wanted, " + std::to_string(remaining()) +
                   " left)";
        else
            msg += std::to_string(remaining()) + " trailing bytes";
        if (where_)
            msg += std::string(" in '") + where_ + "'";
        throw Error(msg);
    }
};

} // namespace io
} // namespace ich

#endif // ICH_IO_CODEC_HH
