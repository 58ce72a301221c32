#include "mem/hierarchy.hh"

#include "obs/stats.hh"

namespace pgss::mem
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2)
{
}

std::uint32_t
CacheHierarchy::dataAccess(std::uint64_t addr, bool is_write)
{
    std::uint32_t latency = config_.l1_latency;
    CacheAccessResult l1 = l1d_.access(addr, is_write);
    if (l1.hit)
        return latency;
    if (l1.writeback)
        l2_.access(l1.victim_addr, true); // victim drains into L2

    latency += config_.l2_latency;
    CacheAccessResult l2 = l2_.access(addr, false);
    if (l2.hit)
        return latency;
    return latency + config_.mem_latency;
}

std::uint32_t
CacheHierarchy::instFetch(std::uint64_t addr)
{
    CacheAccessResult l1 = l1i_.access(addr, false);
    if (l1.hit)
        return 0;
    CacheAccessResult l2 = l2_.access(addr, false);
    if (l2.hit)
        return config_.l2_latency;
    return config_.l2_latency + config_.mem_latency;
}

void
CacheHierarchy::flushAll()
{
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
}

void
CacheHierarchy::registerStats(obs::Group &parent) const
{
    l1i_.registerStats(
        parent.child("l1i", "L1 instruction cache"));
    l1d_.registerStats(parent.child("l1d", "L1 data cache"));
    l2_.registerStats(parent.child("l2", "unified L2 cache"));
}

CacheHierarchy::State
CacheHierarchy::state() const
{
    return {l1i_.state(), l1d_.state(), l2_.state()};
}

void
CacheHierarchy::setState(const State &st)
{
    l1i_.setState(st.l1i);
    l1d_.setState(st.l1d);
    l2_.setState(st.l2);
}

} // namespace pgss::mem
