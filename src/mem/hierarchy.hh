/**
 * @file
 * Two-level cache hierarchy matching the paper's configuration: split
 * 4-way 64 KB L1 instruction and data caches over a unified 1 MB L2,
 * in front of a fixed-latency main memory. Exposes both timed accesses
 * (returning the latency the pipeline must absorb) and untimed warming
 * accesses (used during functional fast-forwarding, which per
 * SMARTS/PGSS keeps long-lifetime cache state warm).
 */

#ifndef PGSS_MEM_HIERARCHY_HH
#define PGSS_MEM_HIERARCHY_HH

#include <cstdint>

#include "mem/cache.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::mem
{

/** Hierarchy geometry and latencies (cycles). */
struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 4, 64};
    CacheConfig l1d{"l1d", 64 * 1024, 4, 64};
    CacheConfig l2{"l2", 1024 * 1024, 8, 64};

    std::uint32_t l1_latency = 3;   ///< load-to-use on an L1 hit
    std::uint32_t l2_latency = 12;  ///< additional cycles on L1 miss
    std::uint32_t mem_latency = 150; ///< additional cycles on L2 miss
};

/** The three caches plus the latency calculation. */
class CacheHierarchy
{
  public:
    /** Build all levels from @p config. */
    explicit CacheHierarchy(const HierarchyConfig &config);

    /**
     * Timed data access.
     * @param addr byte address.
     * @param is_write true for stores.
     * @return total access latency in cycles.
     */
    std::uint32_t dataAccess(std::uint64_t addr, bool is_write);

    /**
     * Timed instruction fetch of the line containing @p addr.
     * @return extra fetch latency in cycles (0 on an L1I hit).
     */
    std::uint32_t instFetch(std::uint64_t addr);

    /** Untimed data access: updates tag state only. Inline. */
    void warmData(std::uint64_t addr, bool is_write);

    /** Untimed instruction-fetch warming. Inline. */
    void warmInst(std::uint64_t addr);

    /** Invalidate every level. */
    void flushAll();

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }

    const HierarchyConfig &config() const { return config_; }

    /**
     * Register per-level child groups ("l1i"/"l1d"/"l2") with each
     * cache's counters into @p parent. The hierarchy must outlive
     * dumps of the enclosing registry.
     */
    void registerStats(obs::Group &parent) const;

    /** All-level tag snapshot for checkpointing. */
    struct State
    {
        Cache::State l1i, l1d, l2;

        bool operator==(const State &) const = default;
    };

    /** Capture hierarchy state. */
    State state() const;

    /** Restore hierarchy state. */
    void setState(const State &st);

  private:
    HierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

inline void
CacheHierarchy::warmData(std::uint64_t addr, bool is_write)
{
    CacheAccessResult l1 = l1d_.access(addr, is_write);
    if (l1.hit)
        return;
    if (l1.writeback)
        l2_.access(l1.victim_addr, true);
    l2_.access(addr, false);
}

inline void
CacheHierarchy::warmInst(std::uint64_t addr)
{
    CacheAccessResult l1 = l1i_.access(addr, false);
    if (!l1.hit)
        l2_.access(addr, false);
}

} // namespace pgss::mem

#endif // PGSS_MEM_HIERARCHY_HH
