#include "branch/predictor.hh"

#include <bit>

#include "util/logging.hh"

namespace pgss::branch
{

// ---------------------------------------------------------------- bimodal

BimodalPredictor::BimodalPredictor(std::uint32_t entries)
    : table_(entries, 1), mask_(entries - 1)
{
    util::panicIf(!std::has_single_bit(entries),
                  "bimodal table size must be a power of two");
}

void
BimodalPredictor::reset()
{
    std::fill(table_.begin(), table_.end(), 1);
}

std::vector<std::uint8_t>
BimodalPredictor::state() const
{
    return table_;
}

void
BimodalPredictor::setState(const std::vector<std::uint8_t> &st)
{
    util::panicIf(st.size() != table_.size(),
                  "bimodal state size mismatch");
    table_ = st;
}

// ----------------------------------------------------------------- gshare

GsharePredictor::GsharePredictor(std::uint32_t entries,
                                 std::uint32_t history_bits)
    : table_(entries, 1), mask_(entries - 1),
      history_mask_((1u << history_bits) - 1)
{
    util::panicIf(!std::has_single_bit(entries),
                  "gshare table size must be a power of two");
    util::panicIf(history_bits == 0 || history_bits > 30,
                  "gshare history bits out of range");
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), 1);
    history_ = 0;
}

std::vector<std::uint8_t>
GsharePredictor::state() const
{
    // Append the 4 history bytes after the table.
    std::vector<std::uint8_t> st = table_;
    for (int i = 0; i < 4; ++i)
        st.push_back(static_cast<std::uint8_t>(history_ >> (8 * i)));
    return st;
}

void
GsharePredictor::setState(const std::vector<std::uint8_t> &st)
{
    util::panicIf(st.size() != table_.size() + 4,
                  "gshare state size mismatch");
    std::copy(st.begin(), st.begin() + table_.size(), table_.begin());
    history_ = 0;
    for (int i = 0; i < 4; ++i)
        history_ |= static_cast<std::uint32_t>(st[table_.size() + i])
                    << (8 * i);
}

// ------------------------------------------------------------- tournament

TournamentPredictor::TournamentPredictor(std::uint32_t entries,
                                         std::uint32_t history_bits)
    : bimodal_(entries), gshare_(entries, history_bits),
      chooser_(entries, 2), mask_(entries - 1)
{
}

void
TournamentPredictor::reset()
{
    bimodal_.reset();
    gshare_.reset();
    std::fill(chooser_.begin(), chooser_.end(), 2);
}

std::vector<std::uint8_t>
TournamentPredictor::state() const
{
    std::vector<std::uint8_t> st = bimodal_.state();
    const auto gst = gshare_.state();
    st.insert(st.end(), gst.begin(), gst.end());
    st.insert(st.end(), chooser_.begin(), chooser_.end());
    return st;
}

void
TournamentPredictor::setState(const std::vector<std::uint8_t> &st)
{
    const std::size_t bim_size = chooser_.size();
    const std::size_t gsh_size = chooser_.size() + 4;
    util::panicIf(st.size() != bim_size + gsh_size + chooser_.size(),
                  "tournament state size mismatch");
    bimodal_.setState(
        {st.begin(), st.begin() + static_cast<long>(bim_size)});
    gshare_.setState({st.begin() + static_cast<long>(bim_size),
                      st.begin() + static_cast<long>(bim_size + gsh_size)});
    std::copy(st.begin() + static_cast<long>(bim_size + gsh_size),
              st.end(), chooser_.begin());
}

} // namespace pgss::branch
