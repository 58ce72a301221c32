#include "branch/btb.hh"

#include <bit>

#include "util/logging.hh"

namespace pgss::branch
{

Btb::Btb(std::uint32_t entries)
    : tags_(entries, 0), targets_(entries, 0), valid_(entries, 0),
      mask_(entries - 1)
{
    util::panicIf(!std::has_single_bit(entries),
                  "BTB size must be a power of two");
}

void
Btb::reset()
{
    std::fill(valid_.begin(), valid_.end(), 0);
}

Btb::State
Btb::state() const
{
    return {tags_, targets_, valid_};
}

void
Btb::setState(const State &st)
{
    util::panicIf(st.tags.size() != tags_.size(),
                  "BTB state size mismatch");
    tags_ = st.tags;
    targets_ = st.targets;
    valid_ = st.valid;
}

ReturnAddressStack::ReturnAddressStack(std::uint32_t depth)
    : stack_(depth, 0)
{
    util::panicIf(depth == 0, "RAS depth must be nonzero");
}

void
ReturnAddressStack::reset()
{
    top_ = 0;
    count_ = 0;
}

} // namespace pgss::branch
