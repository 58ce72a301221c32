/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for artifact
 * integrity checking. The persistent binary artifact, the profile
 * cache, seals each logical section with a CRC so truncation and bit
 * corruption are detected at load time instead of surfacing as
 * garbage state — see DESIGN.md section 13.
 */

#ifndef PGSS_UTIL_CRC32_HH
#define PGSS_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace pgss::util
{

/** CRC-32 of @p data (reflected, init/xorout 0xffffffff). */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * Incrementally extend @p crc (a previous crc32() result) with more
 * data: crc32Update(crc32(a), b) == crc32(a concat b).
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t size);

} // namespace pgss::util

#endif // PGSS_UTIL_CRC32_HH
