/**
 * @file
 * Flat data memory for a simulated program. Word-addressed internally
 * (64-bit words) but exposed with byte addresses to match the ISA's
 * load/store semantics; accesses must be 8-byte aligned.
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

    /** Replace the word storage, for checkpoint restore. */
    void setWords(std::vector<std::uint64_t> w);

    // Fast-path access (cpu::FunctionalCore::execute): raw storage.
    // Callers must bounds-check as read()/write() do.
    std::uint64_t *rawWords() { return words_.data(); }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace pgss::mem

#endif // PGSS_MEM_MAIN_MEMORY_HH
