#include "exp/resume.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "exp/colstore.hh"
#include "io/codec.hh"
#include "state/archive.hh"

namespace ich
{
namespace exp
{

bool
ResumeManifest::matches(const ResumeManifest &other) const
{
    return scenario == other.scenario && baseSeed == other.baseSeed &&
           trialsPerPoint == other.trialsPerPoint &&
           numPoints == other.numPoints && gridFp == other.gridFp;
}

std::uint64_t
gridFingerprint(const std::vector<ParamPoint> &points)
{
    std::uint64_t h = io::fnv1a("grid-v1");
    for (const ParamPoint &p : points) {
        h = io::fnv1a(p.toString(), h);
        for (const auto &e : p.entries()) {
            h = io::fnv1a(e.value.label.str(), h);
            char bits[32];
            std::snprintf(bits, sizeof bits, "%016" PRIx64,
                          io::f64Bits(e.value.value));
            h = io::fnv1a(bits, h);
        }
        h = io::fnv1a("|", h);
    }
    return h;
}

std::string
resultStorePath(const std::string &dir, const std::string &scenario)
{
    return (std::filesystem::path(dir) / (scenario + ".colstore"))
        .string();
}

std::string
warmSnapshotPath(const std::string &dir, const std::string &scenario,
                 const std::string &key)
{
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, io::fnv1a(key));
    return (std::filesystem::path(dir) /
            (scenario + ".warm-" + hash + ".snap"))
        .string();
}

bool
loadManifest(const std::string &path, ResumeManifest &out)
{
    try {
        ColumnStoreReader reader(path);
        if (reader.trialsPerPoint() < 1)
            return false;
        ResumeManifest m;
        m.scenario = reader.scenario();
        m.baseSeed = reader.baseSeed();
        m.trialsPerPoint = reader.trialsPerPoint();
        m.numPoints = reader.numPoints();
        m.gridFp = reader.gridFp();
        reader.forEachPoint(
            [&m](std::size_t idx,
                 const std::vector<TrialRecord> &records) {
                if (idx >= m.numPoints ||
                    records.size() !=
                        static_cast<std::size_t>(m.trialsPerPoint))
                    throw state::ArchiveError(
                        "colstore: point shape disagrees with the "
                        "header");
                m.points[idx] = records;
            });
        out = std::move(m);
        return true;
    } catch (const state::ArchiveError &) {
        // Missing, corrupt, or not a column store: treat as absent.
        return false;
    }
}

void
writeManifest(const std::string &path, const ResumeManifest &m)
{
    StoreHeader hdr;
    hdr.scenario = m.scenario;
    hdr.description = ""; // presentation only; matches() ignores it
    hdr.baseSeed = m.baseSeed;
    hdr.trialsPerPoint = m.trialsPerPoint;
    hdr.numPoints = m.numPoints;
    hdr.gridFp = m.gridFp;
    state::atomicWriteFile(path, encodeColumnStore(hdr, m.points));
}

namespace
{

bool
trialsBitEqual(const std::vector<TrialRecord> &a,
               const std::vector<TrialRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].trial != b[i].trial || a[i].seed != b[i].seed ||
            a[i].metrics.size() != b[i].metrics.size())
            return false;
        auto ma = a[i].metrics.begin();
        for (auto mb = b[i].metrics.begin(); mb != b[i].metrics.end();
             ++ma, ++mb) {
            if (ma->first != mb->first ||
                io::f64Bits(ma->second) != io::f64Bits(mb->second))
                return false;
        }
    }
    return true;
}

} // namespace

std::vector<std::size_t>
mergeManifest(ResumeManifest &dst, const ResumeManifest &src)
{
    if (!dst.matches(src))
        throw std::runtime_error(
            "mergeManifest: manifests describe different sweeps "
            "(scenario/seed/trials/grid mismatch)");
    std::vector<std::size_t> added;
    for (const auto &kv : src.points) {
        if (kv.first >= dst.numPoints)
            throw std::runtime_error(
                "mergeManifest: point " + std::to_string(kv.first) +
                " beyond the grid (" + std::to_string(dst.numPoints) +
                " points)");
        if (kv.second.size() !=
            static_cast<std::size_t>(dst.trialsPerPoint))
            throw std::runtime_error(
                "mergeManifest: point " + std::to_string(kv.first) +
                " has " + std::to_string(kv.second.size()) +
                " trials, expected " +
                std::to_string(dst.trialsPerPoint));
        auto it = dst.points.find(kv.first);
        if (it != dst.points.end()) {
            if (!trialsBitEqual(it->second, kv.second))
                throw std::runtime_error(
                    "mergeManifest: duplicate records for point " +
                    std::to_string(kv.first) +
                    " disagree bit-for-bit (corruption or "
                    "nondeterministic trials)");
            continue; // identical duplicate: silent dedupe
        }
        dst.points[kv.first] = kv.second;
        added.push_back(kv.first);
    }
    return added;
}

} // namespace exp
} // namespace ich
