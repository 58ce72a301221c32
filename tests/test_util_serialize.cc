/** @file Tests for the binary serialization layer. */

#include <gtest/gtest.h>

#include "util/serialize.hh"

using pgss::util::BinaryReader;
using pgss::util::BinaryWriter;

namespace
{
constexpr std::uint32_t magic = 0x54455354;
constexpr std::uint32_t version = 3;
} // namespace

TEST(Serialize, RoundTripAllTypes)
{
    BinaryWriter w(magic, version);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefull);
    w.putDouble(3.14159);
    w.putString("hello world");
    w.putDoubleVec({1.5, -2.5, 0.0});

    BinaryReader r(w.bytes(), magic, version);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_DOUBLE_EQ(r.getDouble(), 3.14159);
    EXPECT_EQ(r.getString(), "hello world");
    EXPECT_EQ(r.getDoubleVec(), (std::vector<double>{1.5, -2.5, 0.0}));
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.ok());
}

TEST(Serialize, EmptyContainersRoundTrip)
{
    BinaryWriter w(magic, version);
    w.putString("");
    w.putDoubleVec({});
    BinaryReader r(w.bytes(), magic, version);
    EXPECT_EQ(r.getString(), "");
    EXPECT_TRUE(r.getDoubleVec().empty());
    EXPECT_TRUE(r.ok());
}

TEST(Serialize, WrongMagicFailsHeader)
{
    BinaryWriter w(magic, version);
    BinaryReader r(w.bytes(), magic + 1, version);
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, WrongVersionFailsHeader)
{
    BinaryWriter w(magic, version);
    BinaryReader r(w.bytes(), magic, version + 1);
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, TruncatedInputReportsNotOk)
{
    BinaryWriter w(magic, version);
    w.putU64(12345);
    auto bytes = w.bytes();
    bytes.resize(bytes.size() - 3);
    BinaryReader r(bytes, magic, version);
    ASSERT_TRUE(r.ok()); // header intact
    r.getU64();          // body truncated
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, TooShortForHeader)
{
    BinaryReader r({1, 2, 3}, magic, version);
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, SpecialDoublesRoundTrip)
{
    BinaryWriter w(magic, version);
    w.putDouble(0.0);
    w.putDouble(-0.0);
    w.putDouble(1e308);
    w.putDouble(-1e-308);
    BinaryReader r(w.bytes(), magic, version);
    EXPECT_EQ(r.getDouble(), 0.0);
    EXPECT_EQ(r.getDouble(), -0.0);
    EXPECT_DOUBLE_EQ(r.getDouble(), 1e308);
    EXPECT_DOUBLE_EQ(r.getDouble(), -1e-308);
}
