#include "util/serialize.hh"

#include <cstring>

#include "util/crc32.hh"

namespace pgss::util
{

BinaryWriter::BinaryWriter(std::uint32_t magic, std::uint32_t version)
{
    putU32(magic);
    putU32(version);
}

void
BinaryWriter::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
BinaryWriter::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
BinaryWriter::putDouble(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
BinaryWriter::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
BinaryWriter::putDoubleVec(const std::vector<double> &v)
{
    putU64(v.size());
    for (double d : v)
        putDouble(d);
}

void
BinaryWriter::putSectionCrc()
{
    const std::uint32_t crc =
        crc32(buf_.data() + section_start_, buf_.size() - section_start_);
    putU32(crc);
    section_start_ = buf_.size();
}

BinaryReader::BinaryReader(std::vector<std::uint8_t> data,
                           std::uint32_t magic, std::uint32_t version)
    : buf_(std::move(data))
{
    if (buf_.size() < 8) {
        markCorrupt();
        return;
    }
    if (getU32() != magic) {
        markCorrupt();
        return;
    }
    // Right magic but another version is a legitimately old artifact
    // from a previous build, not damage: callers treat it as a cache
    // miss, never quarantine it.
    if (getU32() != version)
        error_ = ReadError::Stale;
}

bool
BinaryReader::need(std::size_t n)
{
    if (error_ != ReadError::None || n > buf_.size() - pos_) {
        if (error_ == ReadError::None)
            markCorrupt();
        return false;
    }
    return true;
}

std::uint32_t
BinaryReader::getU32()
{
    if (!need(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
}

std::uint64_t
BinaryReader::getU64()
{
    if (!need(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
}

double
BinaryReader::getDouble()
{
    std::uint64_t bits = getU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
BinaryReader::getString()
{
    std::uint64_t n = getU64();
    // A corrupt length can exceed size_t on 32-bit targets or the
    // remaining bytes on any target; clamp before need() so nothing
    // ever allocates from an unvalidated count.
    if (!ok() || n > buf_.size() - pos_) {
        markCorrupt();
        return {};
    }
    std::string s(reinterpret_cast<const char *>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

std::vector<double>
BinaryReader::getDoubleVec()
{
    std::uint64_t n = getU64();
    std::vector<double> v;
    // Validate against remaining bytes before reserving: `n * 8` can
    // wrap for a corrupt count and would pass a naive bound check.
    if (!ok() || n > (buf_.size() - pos_) / 8) {
        markCorrupt();
        return v;
    }
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(getDouble());
    return v;
}

bool
BinaryReader::checkSectionCrc()
{
    if (error_ != ReadError::None)
        return false;
    const std::uint32_t want =
        crc32(buf_.data() + section_start_, pos_ - section_start_);
    const std::uint32_t got = getU32();
    if (error_ != ReadError::None || got != want) {
        markCorrupt();
        return false;
    }
    section_start_ = pos_;
    return true;
}

} // namespace pgss::util
