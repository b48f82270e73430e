#include "state/archive.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "io/codec.hh"
#include "io/fileops.hh"

namespace ich
{
namespace state
{

namespace
{

/** Value type tags (one byte in front of every value). */
enum Tag : std::uint8_t {
    kTagBool = 1,
    kTagU8 = 2,
    kTagU32 = 3,
    kTagU64 = 4,
    kTagI32 = 5,
    kTagF64 = 6,
    kTagString = 7,
};

const char *
tagName(std::uint8_t tag)
{
    switch (tag) {
      case kTagBool: return "bool";
      case kTagU8: return "u8";
      case kTagU32: return "u32";
      case kTagU64: return "u64";
      case kTagI32: return "i32";
      case kTagF64: return "f64";
      case kTagString: return "string";
      default: return "unknown";
    }
}

constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    // Bitwise CRC-32 (reflected, poly 0xEDB88320). Snapshots are taken
    // at quiesce points, not in inner loops; simplicity wins over a
    // lookup table here. A seed of 0 starts a fresh CRC; passing a
    // previous result continues it (~0 un-finalizes the prior call).
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

void
atomicWriteFile(const std::string &path, const Buffer &data)
{
    const std::string tmp = path + ".tmp";
    int fd = io::open(tmp.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644,
                      "archive.write");
    if (fd < 0)
        throw ArchiveError("archive: cannot open '" + tmp +
                           "' for writing [site archive.write]: " +
                           std::strerror(errno));
    auto bail = [&](const std::string &what, int err) {
        if (fd >= 0)
            ::close(fd);
        std::remove(tmp.c_str());
        throw ArchiveError("archive: " + what + " [site archive.write]" +
                           (err ? std::string(": ") + std::strerror(err)
                                : std::string()));
    };
    std::size_t done = 0;
    while (done < data.size()) {
        ssize_t n = io::write(fd, data.data() + done, data.size() - done,
                              "archive.write", tmp.c_str());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            bail("write failed on '" + tmp + "' at byte " +
                     std::to_string(done) + " of " +
                     std::to_string(data.size()),
                 errno);
        }
        if (n == 0)
            // A zero-byte write for a nonzero count cannot make
            // progress; looping on it would spin forever.
            bail("write of " + std::to_string(data.size() - done) +
                     " bytes to '" + tmp + "' returned 0",
                 0);
        done += static_cast<std::size_t>(n);
    }
    // Data must be on disk before the rename publishes the file, or a
    // power cut can leave the *new* name pointing at garbage — atomic
    // replacement is only atomic if the bytes land first.
    if (io::fsync(fd, "archive.write", tmp.c_str()) != 0)
        bail("fsync failed on '" + tmp + "'", errno);
    if (::close(fd) != 0) {
        fd = -1;
        bail("close failed on '" + tmp + "'", errno);
    }
    fd = -1;
    if (io::rename(tmp.c_str(), path.c_str(), "archive.write") != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        throw ArchiveError("archive: cannot rename '" + tmp + "' to '" +
                           path + "' [site archive.write]: " +
                           std::strerror(err));
    }
    // The rename itself lives in the directory: fsync it too, so the
    // new directory entry survives a crash. Failure here is not fatal —
    // the file contents are already durable and the old entry, if any,
    // was equally consistent.
    std::string dir(path);
    std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? std::string(".")
                                     : dir.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

Buffer
readFile(const std::string &path)
{
    int fd = io::open(path.c_str(), O_RDONLY | O_CLOEXEC, 0,
                      "archive.read");
    if (fd < 0)
        throw ArchiveError("archive: cannot open '" + path +
                           "' [site archive.read]: " +
                           std::strerror(errno));
    Buffer data;
    std::uint8_t chunk[65536];
    for (;;) {
        ssize_t n = io::read(fd, chunk, sizeof chunk, "archive.read",
                             path.c_str());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            throw ArchiveError("archive: read failed on '" + path +
                               "' [site archive.read]: " +
                               std::strerror(err));
        }
        if (n == 0)
            break;
        data.insert(data.end(), chunk, chunk + n);
    }
    ::close(fd);
    return data;
}

// ------------------------------------------------------------- writer

io::ByteWriter
ArchiveWriter::tagged(std::uint8_t tag)
{
    if (!inSection_)
        throw ArchiveError("ArchiveWriter: value outside a section");
    io::ByteWriter w(payload_);
    w.putU8(tag);
    return w;
}

void
ArchiveWriter::beginSection(const std::string &name)
{
    if (inSection_)
        throw ArchiveError("ArchiveWriter: sections cannot nest");
    inSection_ = true;
    io::ByteWriter w(payload_);
    w.putString(name);
    bodyLenPos_ = w.size();
    w.putU32(0); // patched in endSection()
}

void
ArchiveWriter::endSection()
{
    if (!inSection_)
        throw ArchiveError("ArchiveWriter: endSection without begin");
    inSection_ = false;
    io::ByteWriter(payload_).patch32(
        bodyLenPos_,
        static_cast<std::uint32_t>(payload_.size() - bodyLenPos_ - 4));
}

void
ArchiveWriter::putBool(bool v)
{
    tagged(kTagBool).putU8(v ? 1 : 0);
}

void
ArchiveWriter::putU8(std::uint8_t v)
{
    tagged(kTagU8).putU8(v);
}

void
ArchiveWriter::putU32(std::uint32_t v)
{
    tagged(kTagU32).putU32(v);
}

void
ArchiveWriter::putU64(std::uint64_t v)
{
    tagged(kTagU64).putU64(v);
}

void
ArchiveWriter::putI32(std::int32_t v)
{
    tagged(kTagI32).putI32(v);
}

void
ArchiveWriter::putF64(double v)
{
    tagged(kTagF64).putF64(v);
}

void
ArchiveWriter::putString(const std::string &v)
{
    tagged(kTagString).putString(v);
}

Buffer
ArchiveWriter::finish() const
{
    if (inSection_)
        throw ArchiveError("ArchiveWriter: finish with an open section");
    Buffer out;
    out.reserve(kHeaderSize + payload_.size());
    io::ByteWriter w(out);
    w.putU32(kArchiveMagic);
    w.putU32(kArchiveVersion);
    w.putU64(payload_.size());
    w.putU32(crc32(payload_.data(), payload_.size()));
    w.putBytes(payload_.data(), payload_.size());
    return out;
}

void
ArchiveWriter::writeFile(const std::string &path) const
{
    atomicWriteFile(path, finish());
}

// ------------------------------------------------------------- reader

SectionReader::SectionReader(const std::string &name,
                             const std::uint8_t *begin, std::size_t size)
    : name_(name), in_(begin, size, "archive section", name.c_str())
{
}

SectionReader::Reader &
SectionReader::expectTag(std::uint8_t tag, const char *what)
{
    std::uint8_t got = in_.getU8();
    if (got != tag)
        throw ArchiveError("section '" + name_ + "': expected " + what +
                           ", found " + tagName(got));
    return in_;
}

bool
SectionReader::getBool()
{
    return expectTag(kTagBool, "bool").getU8() != 0;
}

std::uint8_t
SectionReader::getU8()
{
    return expectTag(kTagU8, "u8").getU8();
}

std::uint32_t
SectionReader::getU32()
{
    return expectTag(kTagU32, "u32").getU32();
}

std::uint64_t
SectionReader::getU64()
{
    return expectTag(kTagU64, "u64").getU64();
}

std::int32_t
SectionReader::getI32()
{
    return expectTag(kTagI32, "i32").getI32();
}

double
SectionReader::getF64()
{
    return expectTag(kTagF64, "f64").getF64();
}

std::string
SectionReader::getString()
{
    return expectTag(kTagString, "string").getString();
}

ArchiveReader::ArchiveReader(Buffer data) : data_(std::move(data))
{
    io::ByteReader<ArchiveError> in(data_.data(), data_.size(),
                                    "archive");
    if (in.getU32() != kArchiveMagic)
        throw ArchiveError("not a state archive (bad magic)");
    std::uint32_t version = in.getU32();
    if (version != kArchiveVersion)
        throw ArchiveError(
            "archive version mismatch: file has v" +
            std::to_string(version) + ", this build reads v" +
            std::to_string(kArchiveVersion));
    std::uint64_t payload_len = in.getU64();
    if (payload_len != data_.size() - kHeaderSize)
        throw ArchiveError("archive truncated: header promises " +
                           std::to_string(payload_len) +
                           " payload bytes, file carries " +
                           std::to_string(data_.size() - kHeaderSize));
    std::uint32_t expect_crc = in.getU32();
    std::uint32_t got_crc = crc32(data_.data() + kHeaderSize,
                                  static_cast<std::size_t>(payload_len));
    if (expect_crc != got_crc)
        throw ArchiveError("archive CRC mismatch (corrupt payload)");

    // Index the sections.
    while (in.remaining() > 0) {
        std::string name = in.getString();
        std::uint32_t body_len = in.getU32();
        std::size_t pos =
            static_cast<std::size_t>(in.bytes(body_len) - data_.data());
        if (!index_.emplace(name, std::make_pair(pos, body_len)).second)
            throw ArchiveError("duplicate section '" + name + "'");
    }
}

ArchiveReader
ArchiveReader::fromFile(const std::string &path)
{
    return ArchiveReader(readFile(path));
}

bool
ArchiveReader::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

SectionReader
ArchiveReader::open(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        throw ArchiveError("archive has no section '" + name + "'");
    return SectionReader(it->first, data_.data() + it->second.first,
                         it->second.second);
}

std::vector<std::string>
ArchiveReader::sectionNames() const
{
    std::vector<std::string> names;
    names.reserve(index_.size());
    for (const auto &kv : index_)
        names.push_back(kv.first);
    return names;
}

} // namespace state
} // namespace ich
