#include "mem/main_memory.hh"

#include <utility>

namespace pgss::mem
{

MainMemory::MainMemory(std::uint64_t bytes) : words_((bytes + 7) / 8, 0)
{
}

void
MainMemory::setWords(std::vector<std::uint64_t> w)
{
    words_ = std::move(w);
}

} // namespace pgss::mem
