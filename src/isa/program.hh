/**
 * @file
 * A complete simulated program: pre-decoded instruction memory, an
 * entry point and an initial data image, as the workload builder
 * produces them. Instruction "addresses" used by the branch
 * predictors and BBV hash are byte addresses (index << 2) to mimic
 * real 32-bit instruction encodings.
 */

#ifndef PGSS_ISA_PROGRAM_HH
#define PGSS_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace pgss::isa
{

/** Convert an instruction index to its byte address. */
inline std::uint64_t
instAddr(std::uint64_t index)
{
    return index << 2;
}

/** A runnable program. */
struct Program
{
    std::string name;                 ///< workload name
    std::vector<Instruction> code;    ///< instruction memory
    std::uint64_t data_bytes = 0;     ///< data segment size
    std::uint64_t entry = 0;          ///< first instruction index

    /**
     * Initial data-memory image (64-bit words), host-initialised by
     * the workload builder; sized data_bytes / 8.
     */
    std::vector<std::uint64_t> data_words;

    /** Number of static instructions. */
    std::size_t size() const { return code.size(); }
};

} // namespace pgss::isa

#endif // PGSS_ISA_PROGRAM_HH
