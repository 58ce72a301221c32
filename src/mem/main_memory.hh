/**
 * @file
 * Flat data memory for a simulated program: 64-bit words. The ISA
 * addresses it by byte; cpu::FunctionalCore::execute() turns an
 * 8-byte-aligned byte address into a word index.
 */

#ifndef PGSS_MEM_MAIN_MEMORY_HH
#define PGSS_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <vector>

namespace pgss::mem
{

/**
 * Program data memory. Size is fixed at construction from the
 * program's declared data footprint. The execute loop's loads and
 * stores panic on an unaligned or out-of-range address: the workload
 * generator is supposed to produce well-formed programs, so a stray
 * access is a simulator bug, not a user error.
 */
class MainMemory
{
  public:
    /** Allocate @p bytes of zeroed memory (rounded up to words). */
    explicit MainMemory(std::uint64_t bytes);

    /** Capacity in bytes. */
    std::uint64_t sizeBytes() const { return words_.size() * 8; }

    /** Raw word storage, for checkpointing. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Replace the word storage, for checkpoint restore. */
    void setWords(std::vector<std::uint64_t> w);

    /**
     * Writable word storage for cpu::FunctionalCore::execute(), whose
     * Ld and St check alignment and range before every access.
     */
    std::uint64_t *rawWords() { return words_.data(); }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace pgss::mem

#endif // PGSS_MEM_MAIN_MEMORY_HH
