#include "mem/cache.hh"

#include <bit>

#include "obs/stats.hh"
#include "util/logging.hh"

namespace pgss::mem
{

double
CacheStats::missRatio() const
{
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(misses) / total : 0.0;
}

Cache::Cache(const CacheConfig &config) : config_(config)
{
    using util::panicIf;
    panicIf(!std::has_single_bit(config.size_bytes),
            "cache size must be a power of two");
    panicIf(!std::has_single_bit(
                static_cast<std::uint64_t>(config.line_bytes)),
            "cache line size must be a power of two");
    panicIf(config.assoc == 0, "cache associativity must be nonzero");
    panicIf(config.size_bytes % (config.line_bytes * config.assoc) != 0,
            "cache size not divisible by way size");

    num_sets_ = static_cast<std::uint32_t>(
        config.size_bytes / (config.line_bytes * config.assoc));
    panicIf(!std::has_single_bit(static_cast<std::uint64_t>(num_sets_)),
            "cache set count must be a power of two");
    set_shift_ = std::countr_zero(
        static_cast<std::uint64_t>(config.line_bytes));
    tag_shift_ = std::countr_zero(static_cast<std::uint64_t>(num_sets_));
    set_mask_ = num_sets_ - 1;

    const std::size_t lines =
        static_cast<std::size_t>(num_sets_) * config.assoc;
    tags_.assign(lines, 0);
    valid_.assign(lines, 0);
    dirty_.assign(lines, 0);
    stamp_.assign(lines, 0);
}

CacheAccessResult
Cache::fill(std::uint64_t set, std::uint64_t tag, bool is_write)
{
    const std::size_t base =
        static_cast<std::size_t>(set) * config_.assoc;

    // Miss: pick an invalid way, else the LRU way.
    std::size_t victim = base;
    bool found_invalid = false;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        const std::size_t i = base + w;
        if (!valid_[i]) {
            victim = i;
            found_invalid = true;
            break;
        }
        if (stamp_[i] < stamp_[victim])
            victim = i;
    }

    CacheAccessResult result;
    result.hit = false;
    result.writeback = !found_invalid && dirty_[victim];
    if (result.writeback) {
        ++stats_.writebacks;
        // Reconstruct the victim's byte address from its tag/set so
        // the next level can absorb the write-back.
        const std::uint64_t victim_line =
            (tags_[victim] << tag_shift_) | set;
        result.victim_addr = victim_line << set_shift_;
    }

    tags_[victim] = tag;
    valid_[victim] = 1;
    dirty_[victim] = is_write ? 1 : 0;
    stamp_[victim] = tick_;
    ++stats_.misses;
    return result;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t line = addr >> set_shift_;
    const std::uint64_t set = line & set_mask_;
    const std::uint64_t tag = line >> tag_shift_;
    const std::size_t base =
        static_cast<std::size_t>(set) * config_.assoc;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        const std::size_t i = base + w;
        if (valid_[i] && tags_[i] == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

Cache::State
Cache::state() const
{
    return {tags_, valid_, dirty_, stamp_, tick_};
}

void
Cache::setState(const State &st)
{
    util::panicIf(st.tags.size() != tags_.size(),
                  "cache state size mismatch");
    tags_ = st.tags;
    valid_ = st.valid;
    dirty_ = st.dirty;
    stamp_ = st.stamp;
    tick_ = st.tick;
}

void
Cache::registerStats(obs::Group &group) const
{
    group.addCounter("hits", "accesses that hit",
                     [this] { return stats_.hits; });
    group.addCounter("misses", "accesses that missed",
                     [this] { return stats_.misses; });
    group.addCounter("writebacks", "dirty victims evicted",
                     [this] { return stats_.writebacks; });
    group.addFormula("miss_ratio", "misses / (hits + misses)",
                     [this] { return stats_.missRatio(); });
}

} // namespace pgss::mem
