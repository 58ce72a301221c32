/**
 * @file Tests for the flat main memory. Loads and stores, with their
 * alignment and range checks, are the execute loop's and are tested
 * in test_cpu_semantics.
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"

using pgss::mem::MainMemory;

TEST(MainMemory, ZeroInitialised)
{
    MainMemory m(256);
    ASSERT_EQ(m.words().size(), 32u);
    for (const std::uint64_t w : m.words())
        EXPECT_EQ(w, 0u);
}

TEST(MainMemory, ReadBackWrites)
{
    MainMemory m(128);
    std::uint64_t *raw = m.rawWords();
    raw[0] = 0x1111;
    raw[8] = 0x2222;
    raw[15] = 0x3333;
    EXPECT_EQ(m.words()[0], 0x1111u);
    EXPECT_EQ(m.words()[8], 0x2222u);
    EXPECT_EQ(m.words()[15], 0x3333u);
    EXPECT_EQ(m.words()[1], 0u);
}

TEST(MainMemory, SizeRoundsUpToWords)
{
    MainMemory m(9);
    EXPECT_EQ(m.sizeBytes(), 16u);
    EXPECT_EQ(m.words().size(), 2u);
}

TEST(MainMemory, WordsExposeStorage)
{
    MainMemory m(32);
    m.rawWords()[2] = 5;
    EXPECT_EQ(m.words()[2], 5u);
    EXPECT_EQ(m.words().data(), m.rawWords());
}

TEST(MainMemory, SetWordsRestoresImage)
{
    MainMemory m(32);
    m.setWords({1, 2, 3, 4});
    EXPECT_EQ(m.words()[0], 1u);
    EXPECT_EQ(m.words()[3], 4u);
}
