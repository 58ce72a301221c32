#include "mem/main_memory.hh"

#include "util/logging.hh"

namespace pgss::mem
{

MainMemory::MainMemory(std::uint64_t bytes) : words_((bytes + 7) / 8, 0)
{
}

std::uint64_t
MainMemory::read(std::uint64_t addr) const
{
    util::panicIf((addr & 7) != 0, "unaligned memory read");
    const std::uint64_t w = addr >> 3;
    util::panicIf(w >= words_.size(), "memory read out of range");
    return words_[w];
}

void
MainMemory::write(std::uint64_t addr, std::uint64_t value)
{
    util::panicIf((addr & 7) != 0, "unaligned memory write");
    const std::uint64_t w = addr >> 3;
    util::panicIf(w >= words_.size(), "memory write out of range");
    words_[w] = value;
}

void
MainMemory::setWords(std::vector<std::uint64_t> w)
{
    words_ = std::move(w);
}

} // namespace pgss::mem
