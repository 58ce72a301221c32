/** @file Tests for the flat main memory. */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"

using pgss::mem::MainMemory;

TEST(MainMemory, ZeroInitialised)
{
    MainMemory m(256);
    for (std::uint64_t a = 0; a < 256; a += 8)
        EXPECT_EQ(m.read(a), 0u);
}

TEST(MainMemory, ReadBackWrites)
{
    MainMemory m(128);
    m.write(0, 0x1111);
    m.write(64, 0x2222);
    m.write(120, 0x3333);
    EXPECT_EQ(m.read(0), 0x1111u);
    EXPECT_EQ(m.read(64), 0x2222u);
    EXPECT_EQ(m.read(120), 0x3333u);
    EXPECT_EQ(m.read(8), 0u);
}

TEST(MainMemory, SizeRoundsUpToWords)
{
    MainMemory m(9);
    EXPECT_EQ(m.sizeBytes(), 16u);
}

TEST(MainMemory, WordsExposeStorage)
{
    MainMemory m(32);
    m.write(16, 5);
    EXPECT_EQ(m.words()[2], 5u);
}

TEST(MainMemory, SetWordsRestoresImage)
{
    MainMemory m(32);
    m.setWords({1, 2, 3, 4});
    EXPECT_EQ(m.read(0), 1u);
    EXPECT_EQ(m.read(24), 4u);
}

TEST(MainMemoryDeathTest, UnalignedReadPanics)
{
    MainMemory m(64);
    EXPECT_DEATH(m.read(3), "unaligned");
}

TEST(MainMemoryDeathTest, UnalignedWritePanics)
{
    MainMemory m(64);
    EXPECT_DEATH(m.write(5, 1), "unaligned");
}

TEST(MainMemoryDeathTest, OutOfRangeReadPanics)
{
    MainMemory m(64);
    EXPECT_DEATH(m.read(64), "out of range");
}

TEST(MainMemoryDeathTest, OutOfRangeWritePanics)
{
    MainMemory m(64);
    EXPECT_DEATH(m.write(1024, 1), "out of range");
}
