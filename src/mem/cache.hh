/**
 * @file
 * Set-associative cache model with true-LRU replacement and
 * write-back/write-allocate policy. Models tag state and statistics
 * only (no data array — the functional core keeps the architectural
 * memory image), which is all a timing/sampling study needs and keeps
 * warming fast.
 */

#ifndef PGSS_MEM_CACHE_HH
#define PGSS_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pgss::obs
{
class Group;
}

namespace pgss::mem
{

/** Geometry and identity of one cache. */
struct CacheConfig
{
    std::string name = "cache"; ///< for stats reporting
    std::uint64_t size_bytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t line_bytes = 64;
};

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;        ///< line was present
    bool writeback = false;  ///< a dirty victim was evicted
    std::uint64_t victim_addr = 0; ///< victim line address (writeback)
};

/** Hit/miss/writeback counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    /** Miss ratio; 0 when no accesses have happened. */
    double missRatio() const;
};

/**
 * The cache proper. Tags only; LRU is tracked with a per-set access
 * stamp, giving true LRU at every associativity.
 */
class Cache
{
  public:
    /** Build from @p config; size/assoc/line must be powers of two. */
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing byte address @p addr. The hit path
     * is inline (below); a miss calls fill().
     * @param addr byte address.
     * @param is_write true for stores (marks the line dirty).
     * @return hit/miss and whether a dirty victim was written back.
     */
    CacheAccessResult access(std::uint64_t addr, bool is_write);

    /** True if the line containing @p addr is currently resident. */
    bool probe(std::uint64_t addr) const;

    /** Invalidate all lines and clear dirty bits (stats retained). */
    void flush();

    /** Accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** Reset statistics (contents retained). */
    void clearStats() { stats_ = CacheStats(); }

    /**
     * Register hits/misses/writebacks counters and the miss_ratio
     * formula into @p group. The cache must outlive dumps of the
     * registry @p group belongs to.
     */
    void registerStats(obs::Group &group) const;

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

    /** Number of sets. */
    std::uint32_t numSets() const { return num_sets_; }

    /** Snapshot of all tag state, for checkpointing. */
    struct State
    {
        std::vector<std::uint64_t> tags;
        std::vector<std::uint8_t> valid;
        std::vector<std::uint8_t> dirty;
        std::vector<std::uint64_t> stamp;
        std::uint64_t tick;

        bool operator==(const State &) const = default;
    };

    /** Capture tag state. */
    State state() const;

    /** Restore tag state captured by state(). */
    void setState(const State &st);

  private:
    /** The miss path of access(): allocate @p tag into @p set. */
    CacheAccessResult fill(std::uint64_t set, std::uint64_t tag,
                           bool is_write);

    CacheConfig config_;
    std::uint32_t num_sets_;
    std::uint32_t set_shift_;  ///< log2(line_bytes)
    std::uint32_t tag_shift_;  ///< log2(num_sets)
    std::uint64_t set_mask_;

    // Flattened [set][way] arrays.
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t tick_ = 0;

    CacheStats stats_;
};

inline CacheAccessResult
Cache::access(std::uint64_t addr, bool is_write)
{
    const std::uint64_t line = addr >> set_shift_;
    const std::uint64_t set = line & set_mask_;
    const std::uint64_t tag = line >> tag_shift_;
    const std::size_t base =
        static_cast<std::size_t>(set) * config_.assoc;

    ++tick_;

    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        const std::size_t i = base + w;
        if (valid_[i] && tags_[i] == tag) {
            stamp_[i] = tick_;
            dirty_[i] |= is_write ? 1 : 0;
            ++stats_.hits;
            return {true, false};
        }
    }
    return fill(set, tag, is_write);
}

} // namespace pgss::mem

#endif // PGSS_MEM_CACHE_HH
