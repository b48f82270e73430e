#include "shard/hash_ring.hh"

#include <stdexcept>

#include "io/codec.hh"

namespace ich
{
namespace shard
{

namespace
{

/** splitmix64: decorrelates the two per-backend hash streams. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

HashRing::HashRing(std::size_t backends, std::size_t table_size)
    : enabled_(backends, true), table_(table_size, 0)
{
    if (backends == 0)
        throw std::invalid_argument("HashRing: need at least one backend");
    if (table_size < backends)
        throw std::invalid_argument("HashRing: table smaller than the "
                                    "backend count");
    build();
}

void
HashRing::build()
{
    const std::size_t m = table_.size();
    std::size_t n_enabled = enabledCount();
    if (n_enabled == 0)
        throw std::logic_error("HashRing: every backend is disabled");

    // Per-backend permutation parameters: offset walks the table from a
    // backend-specific start, skip (coprime to a prime table size) makes
    // each backend's preference list a full permutation.
    struct Perm {
        std::size_t backend;
        std::size_t offset;
        std::size_t skip;
        std::size_t next = 0;
    };
    std::vector<Perm> perms;
    perms.reserve(n_enabled);
    for (std::size_t b = 0; b < enabled_.size(); ++b) {
        if (!enabled_[b])
            continue;
        std::uint64_t h =
            io::fnv1a("shard-worker-" + std::to_string(b));
        perms.push_back({b, static_cast<std::size_t>(h % m),
                         static_cast<std::size_t>(mix(h) % (m - 1)) + 1,
                         0});
    }

    std::fill(table_.begin(), table_.end(),
              static_cast<std::uint32_t>(~0u));
    std::size_t filled = 0;
    while (filled < m) {
        for (Perm &p : perms) {
            // Claim the first unfilled slot on this backend's list.
            std::size_t c;
            do {
                c = (p.offset + p.next * p.skip) % m;
                ++p.next;
            } while (table_[c] != static_cast<std::uint32_t>(~0u));
            table_[c] = static_cast<std::uint32_t>(p.backend);
            if (++filled == m)
                break;
        }
    }
}

std::size_t
HashRing::lookup(const std::string &key) const
{
    return table_[static_cast<std::size_t>(io::fnv1a(key) %
                                           table_.size())];
}

void
HashRing::disable(std::size_t backend)
{
    if (backend >= enabled_.size())
        throw std::out_of_range("HashRing::disable: no such backend");
    if (!enabled_[backend])
        return;
    enabled_[backend] = false;
    build();
}

std::size_t
HashRing::enabledCount() const
{
    std::size_t n = 0;
    for (bool e : enabled_)
        n += e ? 1 : 0;
    return n;
}

} // namespace shard
} // namespace ich
