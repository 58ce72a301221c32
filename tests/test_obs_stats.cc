/**
 * @file
 * Tests for the stats registry: registration, pull-style snapshots,
 * formula evaluation, dotted-path lookup, duplicate-name enforcement,
 * and the JSON dump.
 */

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/stats.hh"

using namespace pgss::obs;

namespace
{

/** A component with plain counters, the registration pattern. */
struct FakeCache
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    void
    registerStats(Group &parent)
    {
        Group &g = parent.child("l1", "fake cache");
        g.addCounter("hits", "lookups that hit",
                     [this] { return hits; });
        g.addCounter("misses", "lookups that missed",
                     [this] { return misses; });
        g.addFormula("miss_ratio", "misses / lookups", [this] {
            const std::uint64_t total = hits + misses;
            return total ? static_cast<double>(misses) /
                               static_cast<double>(total)
                         : 0.0;
        });
    }
};

} // namespace

TEST(ObsJson, ObjectWithFieldsAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "a\"b\\c\n");
    w.field("count", std::uint64_t{42});
    w.field("ratio", 0.5);
    w.field("ok", true);
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(), "{\"name\":\"a\\\"b\\\\c\\n\",\"count\":42,"
                       "\"ratio\":0.5,\"ok\":true}");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginObject();
    w.field("nan", std::nan(""));
    w.field("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(ObsJson, NestedArraysAndObjects)
{
    JsonWriter w;
    w.beginObject();
    w.beginArray("xs");
    w.value(std::uint64_t{1});
    w.value(2.5);
    w.value("three");
    w.endArray();
    w.beginObject("o");
    w.endObject();
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(), "{\"xs\":[1,2.5,\"three\"],\"o\":{}}");
}

TEST(ObsStats, CountersSnapshotLiveValues)
{
    StatsRegistry reg;
    FakeCache cache;
    cache.registerStats(reg.root());

    EXPECT_EQ(reg.counterValue("l1.hits"), 0u);
    cache.hits = 7;
    cache.misses = 3;
    // Pull style: the dump sees the component's current counters.
    EXPECT_EQ(reg.counterValue("l1.hits"), 7u);
    EXPECT_EQ(reg.counterValue("l1.misses"), 3u);
}

TEST(ObsStats, FormulaRecomputedPerLookup)
{
    StatsRegistry reg;
    FakeCache cache;
    cache.registerStats(reg.root());

    EXPECT_DOUBLE_EQ(*reg.value("l1.miss_ratio"), 0.0);
    cache.hits = 9;
    cache.misses = 1;
    EXPECT_DOUBLE_EQ(*reg.value("l1.miss_ratio"), 0.1);
    cache.misses = 9;
    EXPECT_DOUBLE_EQ(*reg.value("l1.miss_ratio"), 0.5);
}

TEST(ObsStats, VectorElementsAddressableByName)
{
    StatsRegistry reg;
    reg.root().addVector(
        "mode_ops", "ops per mode", {"fast", "warm"},
        [] { return std::vector<double>{10.0, 20.0}; });

    EXPECT_DOUBLE_EQ(*reg.value("mode_ops.fast"), 10.0);
    EXPECT_DOUBLE_EQ(*reg.value("mode_ops.warm"), 20.0);
    EXPECT_FALSE(reg.value("mode_ops.detailed").has_value());
}

TEST(ObsStats, LookupMissesReturnNullopt)
{
    StatsRegistry reg;
    FakeCache cache;
    cache.registerStats(reg.root());

    EXPECT_FALSE(reg.counterValue("l1.nothing").has_value());
    EXPECT_FALSE(reg.counterValue("l2.hits").has_value());
    // miss_ratio is a Formula, not a Counter.
    EXPECT_FALSE(reg.counterValue("l1.miss_ratio").has_value());
    // ...but value() reads Counters converted to double.
    EXPECT_DOUBLE_EQ(*reg.value("l1.hits"), 0.0);
}

TEST(ObsStatsDeathTest, DuplicateStatNamePanics)
{
    StatsRegistry reg;
    reg.root().addCounter("ops", "", [] { return 0ull; });
    EXPECT_DEATH(reg.root().addCounter("ops", "", [] { return 0ull; }),
                 "ops");
}

TEST(ObsStatsDeathTest, StatNameCollidingWithChildPanics)
{
    StatsRegistry reg;
    reg.root().child("l1", "");
    EXPECT_DEATH(reg.root().addCounter("l1", "", [] { return 0ull; }),
                 "l1");
}

TEST(ObsStats, ChildIsCreateOrGet)
{
    StatsRegistry reg;
    Group &a = reg.root().child("engine", "first");
    Group &b = reg.root().child("engine");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.root().children().size(), 1u);
}

TEST(ObsStats, JsonDumpCarriesGroupsAndValues)
{
    StatsRegistry reg;
    FakeCache cache;
    cache.registerStats(reg.root());
    cache.hits = 11;

    JsonWriter w;
    w.beginObject();
    reg.dumpJson(w);
    w.endObject();
    const std::string doc = w.str();
    EXPECT_NE(doc.find("\"stats\""), std::string::npos);
    EXPECT_NE(doc.find("\"l1\""), std::string::npos);
    EXPECT_NE(doc.find("\"hits\":11"), std::string::npos);
}
