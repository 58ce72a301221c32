/** @file Tests for the deterministic fault-injection framework. */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fi.hh"

using namespace pgss;
namespace fi = pgss::util::fi;

namespace
{

// Namespace-scope sites, as production code declares them.
fi::Site site_a("test.alpha");
fi::Site site_b("test.beta.write");

/** Every test starts and ends with injection off and counters zero. */
struct FiTest : ::testing::Test
{
    void SetUp() override { fi::reset(); }
    void TearDown() override { fi::reset(); }
};

} // namespace

TEST_F(FiTest, GlobMatch)
{
    EXPECT_TRUE(fi::globMatch("ckpt.write", "ckpt.write"));
    EXPECT_FALSE(fi::globMatch("ckpt.write", "ckpt.read"));
    EXPECT_TRUE(fi::globMatch("*", "anything.at.all"));
    EXPECT_TRUE(fi::globMatch("ckpt.*", "ckpt.write"));
    EXPECT_FALSE(fi::globMatch("ckpt.*", "cache.write"));
    EXPECT_TRUE(fi::globMatch("*.write", "ckpt.write"));
    EXPECT_TRUE(fi::globMatch("*.write", "test.beta.write"));
    EXPECT_FALSE(fi::globMatch("*.write", "ckpt.read"));
    EXPECT_TRUE(fi::globMatch("c*p*.w*e", "ckpt.write"));
    EXPECT_FALSE(fi::globMatch("", "x"));
    EXPECT_TRUE(fi::globMatch("", ""));
    EXPECT_TRUE(fi::globMatch("**", ""));
}

TEST_F(FiTest, InactiveByDefault)
{
    EXPECT_FALSE(fi::active());
    EXPECT_FALSE(site_a.shouldFail());
    EXPECT_EQ(site_a.checks(), 0u); // not even counted when off
}

TEST_F(FiTest, ParseErrors)
{
    std::string err;
    EXPECT_FALSE(fi::configure("garbage", &err));
    EXPECT_NE(err.find("key=value"), std::string::npos);
    EXPECT_FALSE(fi::configure("site=a", &err)); // no mode
    EXPECT_FALSE(fi::configure("mode=fail-always", &err)); // no site
    EXPECT_FALSE(fi::configure("site=a,mode=bogus", &err));
    EXPECT_FALSE(fi::configure("site=a,mode=fail-nth:0", &err));
    EXPECT_FALSE(fi::configure("site=a,mode=fail-rate:1.5", &err));
    // Numbers are parsed whole: no NaN, trailing text, sign or
    // non-digit seed.
    EXPECT_FALSE(fi::configure("site=a,mode=fail-rate:nan", &err));
    EXPECT_FALSE(fi::configure("site=a,mode=fail-rate:0.5xyz", &err));
    EXPECT_FALSE(fi::configure("site=a,mode=fail-nth:3x", &err));
    EXPECT_FALSE(fi::configure("site=a,mode=fail-nth:-1", &err));
    EXPECT_FALSE(
        fi::configure("site=a,mode=fail-always,seed=abc", &err));
    EXPECT_FALSE(fi::configure("site=a,mode=fail-always,zzz=1", &err));
    // A failed configure leaves the previous (empty) config in force.
    EXPECT_FALSE(fi::active());

    EXPECT_TRUE(fi::configure("site=a,mode=fail-always"));
    EXPECT_TRUE(fi::active());
    EXPECT_EQ(fi::activeSpec(), "site=a,mode=fail-always");
    EXPECT_TRUE(fi::configure("")); // empty spec deactivates
    EXPECT_FALSE(fi::active());
}

TEST_F(FiTest, FailNthTriggersExactlyOnce)
{
    ASSERT_TRUE(fi::configure("site=test.alpha,mode=fail-nth:3"));
    EXPECT_FALSE(site_a.shouldFail());
    EXPECT_FALSE(site_a.shouldFail());
    EXPECT_TRUE(site_a.shouldFail());
    EXPECT_FALSE(site_a.shouldFail());
    EXPECT_EQ(site_a.checks(), 4u);
    EXPECT_EQ(site_a.triggers(), 1u);
    // The schedule owns only the named site.
    EXPECT_FALSE(site_b.shouldFail());
    EXPECT_EQ(site_b.triggers(), 0u);
}

TEST_F(FiTest, FailAlwaysAndGlobOwnership)
{
    ASSERT_TRUE(fi::configure("site=test.*,mode=fail-always"));
    EXPECT_TRUE(site_a.shouldFail());
    EXPECT_TRUE(site_b.shouldFail());
    // First matching schedule owns the site.
    ASSERT_TRUE(fi::configure(
        "site=test.alpha,mode=fail-nth:100;site=test.*,mode=fail-always"));
    EXPECT_FALSE(site_a.shouldFail()); // nth:100, far away
    EXPECT_TRUE(site_b.shouldFail());  // falls through to the glob
}

TEST_F(FiTest, FailRateIsDeterministicPerSeed)
{
    auto run = [](const char *spec) {
        EXPECT_TRUE(fi::configure(spec));
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(site_a.shouldFail());
        return out;
    };
    const std::vector<bool> a =
        run("site=test.alpha,mode=fail-rate:0.3,seed=7");
    const std::vector<bool> b =
        run("site=test.alpha,mode=fail-rate:0.3,seed=7");
    EXPECT_EQ(a, b); // identical spec => identical faults
    const std::vector<bool> c =
        run("site=test.alpha,mode=fail-rate:0.3,seed=8");
    EXPECT_NE(a, c); // different stream
    const std::size_t fails =
        static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(fails, 5u);
    EXPECT_LT(fails, 40u);
}

TEST_F(FiTest, FlipModeOnlyTriggersThroughCorrupt)
{
    ASSERT_TRUE(fi::configure("site=test.alpha,mode=flip-nth:1"));
    // shouldFail() never triggers under a flip schedule.
    EXPECT_FALSE(site_a.shouldFail());
    std::vector<std::uint8_t> buf(16, 0);
    EXPECT_TRUE(site_a.corrupt(buf));
    std::size_t flipped = 0;
    for (std::uint8_t byte : buf)
        flipped += static_cast<std::size_t>(__builtin_popcount(byte));
    EXPECT_EQ(flipped, 1u); // exactly one bit
    // nth:1 already fired; further corrupt() checks pass clean.
    std::vector<std::uint8_t> buf2(16, 0);
    EXPECT_FALSE(site_a.corrupt(buf2));
    EXPECT_EQ(buf2, std::vector<std::uint8_t>(16, 0));
}

TEST_F(FiTest, FailModeNeverCorrupts)
{
    ASSERT_TRUE(fi::configure("site=test.alpha,mode=fail-always"));
    std::vector<std::uint8_t> buf(8, 0xff);
    EXPECT_FALSE(site_a.corrupt(buf));
    EXPECT_EQ(buf, std::vector<std::uint8_t>(8, 0xff));
}

TEST_F(FiTest, CountersInternAndReset)
{
    std::atomic<std::uint64_t> &c = fi::counter("test.counter");
    EXPECT_EQ(&c, &fi::counter("test.counter")); // stable reference
    c.fetch_add(3, std::memory_order_relaxed);
    bool found = false;
    for (const auto &[name, value] : fi::counters()) {
        if (name == "test.counter") {
            found = true;
            EXPECT_EQ(value, 3u);
        }
    }
    EXPECT_TRUE(found);
    fi::reset();
    EXPECT_EQ(c.load(std::memory_order_relaxed), 0u);
}

TEST_F(FiTest, SitesAreRegistered)
{
    const std::vector<fi::Site *> all = fi::sites();
    const auto has = [&all](const char *name) {
        for (const fi::Site *s : all)
            if (std::string(s->name()) == name)
                return true;
        return false;
    };
    // Production sites register the same way (namespace-scope statics
    // in their translation units); the linker only pulls those TUs
    // when something references them, so assert just our own here.
    EXPECT_TRUE(has("test.alpha"));
    EXPECT_TRUE(has("test.beta.write"));
}
