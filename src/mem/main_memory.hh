/**
 * @file
 * Flat data memory for a simulated program. Word-addressed internally
 * (64-bit words) but exposed with byte addresses to match the ISA's
 * load/store semantics; accesses must be 8-byte aligned.
 *
 * The memory tracks writes at page granularity (4 KiB) so checkpoints
 * can store only the pages touched since the previous capture (delta
 * checkpoints, see sim/checkpoint.hh). The tracking cost is one byte
 * store per simulated store instruction.
 */

#ifndef PGSS_MEM_MAIN_MEMORY_HH
#define PGSS_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <vector>

namespace pgss::mem
{

/**
 * Program data memory. Size is fixed at construction from the
 * program's declared data footprint. Out-of-range accesses panic: the
 * workload generator is supposed to produce well-formed programs, so a
 * stray access is a simulator bug, not a user error.
 */
class MainMemory
{
  public:
    /** Dirty-tracking granularity: 2^page_shift words = 4 KiB. */
    static constexpr std::uint64_t page_shift = 9;

    /** Words per dirty-tracking page. */
    static constexpr std::uint64_t page_words =
        std::uint64_t{1} << page_shift;

    /** Allocate @p bytes of zeroed memory (rounded up to words). */
    explicit MainMemory(std::uint64_t bytes);

    /** Load the 64-bit word at byte address @p addr. */
    std::uint64_t read(std::uint64_t addr) const;

    /** Store @p value at byte address @p addr. */
    void write(std::uint64_t addr, std::uint64_t value);

    /** Capacity in bytes. */
    std::uint64_t sizeBytes() const { return words_.size() * 8; }

    /** Raw word storage, for checkpointing. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /**
     * Replace the word storage, for checkpoint restore. Marks every
     * page dirty: the new image has no known relation to the last
     * captured baseline.
     */
    void setWords(std::vector<std::uint64_t> w);

    /** Number of dirty-tracking pages. */
    std::size_t numPages() const { return page_dirty_.size(); }

    /** Words in page @p page (the last page may be partial). */
    std::uint64_t pageWordCount(std::uint32_t page) const;

    /** Pages written since the last clearPageDirty(), ascending. */
    std::vector<std::uint32_t> dirtyPageList() const;

    /** Reset dirty tracking (a checkpoint baseline was captured). */
    void clearPageDirty();

    // Fast-path access (cpu::FunctionalCore::execute): raw storage
    // plus the dirty byte map. Callers must bounds-check and mark
    // pages dirty exactly as write() does.
    std::uint64_t *rawWords() { return words_.data(); }
    std::uint8_t *rawPageDirty() { return page_dirty_.data(); }

  private:
    std::vector<std::uint64_t> words_;
    std::vector<std::uint8_t> page_dirty_; ///< one byte per page
};

} // namespace pgss::mem

#endif // PGSS_MEM_MAIN_MEMORY_HH
