/**
 * @file
 * Tiny binary serialization layer for the interval profile cache, the
 * one persisted binary artifact. Little-endian, length-prefixed, with
 * a magic/version header validated on load and CRC-32-sealed sections
 * (DESIGN.md section 13): putSectionCrc() appends the CRC of every
 * byte since the previous seal, and checkSectionCrc() on the reader
 * verifies it — so truncation and bit corruption of a persisted
 * artifact are detected deterministically instead of deserializing
 * into garbage.
 */

#ifndef PGSS_UTIL_SERIALIZE_HH
#define PGSS_UTIL_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pgss::util
{

/** Why a BinaryReader is not ok(). Drives quarantine decisions:
 * Corrupt artifacts are quarantined; Stale ones silently rebuilt. */
enum class ReadError : std::uint8_t
{
    None,    ///< ok() is true
    Stale,   ///< right magic, different version (old cache entry)
    Corrupt, ///< wrong magic, truncation, or CRC mismatch
};

/** Append-only binary encoder. */
class BinaryWriter
{
  public:
    /** Start a stream tagged with @p magic and @p version. */
    BinaryWriter(std::uint32_t magic, std::uint32_t version);

    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putDouble(double v);
    void putString(const std::string &s);
    void putDoubleVec(const std::vector<double> &v);

    /**
     * Seal the bytes appended since the previous seal (or the stream
     * start, header included) with their CRC-32. The matching
     * BinaryReader::checkSectionCrc() must be called at the same
     * point in the read sequence.
     */
    void putSectionCrc();

    /** The encoded bytes (header included). */
    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t section_start_ = 0;
};

/**
 * Sequential binary decoder matching BinaryWriter. Truncated input,
 * header mismatch, and section-CRC mismatch are all reported through
 * ok()/error(); reads past the end return zero values. Callers decide
 * per error() whether a bad file is a cache miss (Stale) or damage to
 * quarantine (Corrupt).
 */
class BinaryReader
{
  public:
    /** Decode from a byte buffer; validates magic/version. */
    BinaryReader(std::vector<std::uint8_t> data, std::uint32_t magic,
                 std::uint32_t version);

    /** True when the header matched and no read overran the buffer. */
    bool ok() const { return error_ == ReadError::None; }

    /** Failure classification (None while ok()). */
    ReadError error() const { return error_; }

    std::uint32_t getU32();
    std::uint64_t getU64();
    double getDouble();
    std::string getString();
    std::vector<double> getDoubleVec();

    /**
     * Verify the CRC-32 seal of the bytes consumed since the previous
     * check (or the stream start). Mismatch marks the stream Corrupt.
     * @return true when the seal verified.
     */
    bool checkSectionCrc();

    /** True when every byte has been consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    bool need(std::size_t n);
    void markCorrupt() { error_ = ReadError::Corrupt; }

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t section_start_ = 0;
    ReadError error_ = ReadError::None;
};

} // namespace pgss::util

#endif // PGSS_UTIL_SERIALIZE_HH
