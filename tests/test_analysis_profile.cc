/**
 * @file
 * Tests for interval profiles and the profile cache, including the
 * corruption matrix of the cache file: truncated and bit-flipped
 * profiles are always detected, damage is quarantined and rebuilt
 * bit-identically, and a stale format version is a silent miss.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/profile_cache.hh"
#include "tests/helpers.hh"
#include "util/atomic_file.hh"
#include "util/fi.hh"
#include "util/serialize.hh"

using namespace pgss;
using analysis::IntervalProfile;
namespace fs = std::filesystem;

namespace
{

constexpr std::uint64_t small_interval = 20'000;

const workload::BuiltWorkload &
smallWorkload()
{
    static const auto built = test::twoPhaseWorkload(200'000.0, 2);
    return built;
}

IntervalProfile
smallProfile()
{
    return analysis::buildIntervalProfile(smallWorkload().program, {},
                                          small_interval);
}

} // namespace

TEST(Profile, TotalsConsistentWithIntervals)
{
    const IntervalProfile p = smallProfile();
    EXPECT_GT(p.intervals(), 10u);
    EXPECT_EQ(p.intervalOps(), 20'000u);
    // Complete intervals cover at most the program; the tail is in
    // the totals only.
    EXPECT_LE(p.intervals() * p.intervalOps(), p.totalOps());
    std::uint64_t cyc = 0;
    for (std::size_t i = 0; i < p.intervals(); ++i)
        cyc += p.intervalCycles(i);
    EXPECT_LE(cyc, p.totalCycles());
    EXPECT_GT(cyc, 0.9 * p.totalCycles());
}

TEST(Profile, TrueIpcIsOpsOverCycles)
{
    const IntervalProfile p = smallProfile();
    EXPECT_NEAR(p.trueIpc(),
                static_cast<double>(p.totalOps()) / p.totalCycles(),
                1e-12);
    EXPECT_NEAR(p.trueIpc() * p.trueCpi(), 1.0, 1e-9);
}

TEST(Profile, IntervalIpcMatchesCycles)
{
    const IntervalProfile p = smallProfile();
    for (std::size_t i = 0; i < p.intervals(); i += 7)
        EXPECT_NEAR(p.intervalIpc(i),
                    20'000.0 / p.intervalCycles(i), 1e-12);
}

TEST(Profile, BbvUnitNormalised)
{
    const IntervalProfile p = smallProfile();
    const auto v = p.bbvUnit(0);
    double sq = 0;
    for (double x : v)
        sq += x * x;
    EXPECT_NEAR(sq, 1.0, 1e-9);
}

TEST(Profile, TwoPhaseWorkloadShowsTwoIpcLevels)
{
    const IntervalProfile p = smallProfile();
    // The compute and chase phases differ hugely in IPC; the
    // interval series must span that range.
    const auto s = p.ipcStats();
    EXPECT_GT(s.max(), 3.0 * s.min());
}

TEST(Profile, WindowCpiAveragesIntervals)
{
    const IntervalProfile p = smallProfile();
    const double w = p.windowCpi(0, 3);
    const double manual =
        (p.intervalCycles(0) + p.intervalCycles(1) +
         p.intervalCycles(2)) /
        (3.0 * p.intervalOps());
    EXPECT_NEAR(w, manual, 1e-12);
}

TEST(ProfileDeathTest, WindowCpiRangeChecked)
{
    const IntervalProfile p = smallProfile();
    EXPECT_DEATH(p.windowCpi(p.intervals() - 1, 2), "out of range");
}

TEST(Profile, AggregateSumsCyclesAndBbvs)
{
    const IntervalProfile p = smallProfile();
    const IntervalProfile c = p.aggregate(4);
    EXPECT_EQ(c.intervalOps(), 4 * p.intervalOps());
    EXPECT_EQ(c.intervals(), p.intervals() / 4);
    EXPECT_EQ(c.intervalCycles(0),
              p.intervalCycles(0) + p.intervalCycles(1) +
                  p.intervalCycles(2) + p.intervalCycles(3));
    EXPECT_DOUBLE_EQ(c.bbvRaw(0)[0],
                     p.bbvRaw(0)[0] + p.bbvRaw(1)[0] +
                         p.bbvRaw(2)[0] + p.bbvRaw(3)[0]);
    EXPECT_EQ(c.totalOps(), p.totalOps());
}

TEST(Profile, AggregateSmoothsVariation)
{
    // The paper's Figure 2: coarser sampling averages fine-grained
    // IPC variation away, so the interval-IPC sigma shrinks.
    const IntervalProfile p = smallProfile();
    const IntervalProfile c = p.aggregate(8);
    EXPECT_LT(c.ipcStats().stddev(), p.ipcStats().stddev());
}

TEST(Profile, SerializeRoundTrip)
{
    const IntervalProfile p = smallProfile();
    const auto bytes = analysis::serializeProfile(p);
    bool ok = false;
    const IntervalProfile q = analysis::deserializeProfile(bytes, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(q.name(), p.name());
    EXPECT_EQ(q.intervalOps(), p.intervalOps());
    EXPECT_EQ(q.intervals(), p.intervals());
    EXPECT_EQ(q.totalOps(), p.totalOps());
    EXPECT_EQ(q.totalCycles(), p.totalCycles());
    for (std::size_t i = 0; i < p.intervals(); i += 5) {
        EXPECT_EQ(q.intervalCycles(i), p.intervalCycles(i));
        EXPECT_EQ(q.bbvRaw(i), p.bbvRaw(i));
    }
}

TEST(Profile, DeserializeRejectsGarbage)
{
    bool ok = true;
    analysis::deserializeProfile({9, 9, 9}, ok);
    EXPECT_FALSE(ok);
}

TEST(ProfileCache, SecondLoadIsCacheHit)
{
    const std::string dir = test::uniqueTempDir("pgss_profile_cache");
    std::filesystem::remove_all(dir);

    auto built = test::twoPhaseWorkload(150'000.0, 2);
    analysis::ProfileCache cache(dir);
    const IntervalProfile first =
        cache.loadOrBuild(built.program, {}, 25'000);
    const std::string path =
        cache.pathFor(built.program, {}, 25'000);
    EXPECT_TRUE(std::filesystem::exists(path));

    const IntervalProfile second =
        cache.loadOrBuild(built.program, {}, 25'000);
    EXPECT_EQ(second.intervals(), first.intervals());
    EXPECT_EQ(second.totalCycles(), first.totalCycles());
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, DifferentConfigDifferentKey)
{
    // One single-field change per numeric EngineConfig field: each one
    // shapes the simulated machine, so each must get its own cache
    // file. A new config field needs a row here.
    using Edit = void (*)(sim::EngineConfig &);
#define PGSS_FIELD(f) {#f, [](sim::EngineConfig &c) { ++c.f; }}
    const std::vector<std::pair<const char *, Edit>> edits = {
        PGSS_FIELD(hierarchy.l1i.size_bytes),
        PGSS_FIELD(hierarchy.l1i.assoc),
        PGSS_FIELD(hierarchy.l1i.line_bytes),
        PGSS_FIELD(hierarchy.l1d.size_bytes),
        PGSS_FIELD(hierarchy.l1d.assoc),
        PGSS_FIELD(hierarchy.l1d.line_bytes),
        PGSS_FIELD(hierarchy.l2.size_bytes),
        PGSS_FIELD(hierarchy.l2.assoc),
        PGSS_FIELD(hierarchy.l2.line_bytes),
        PGSS_FIELD(hierarchy.l1_latency),
        PGSS_FIELD(hierarchy.l2_latency),
        PGSS_FIELD(hierarchy.mem_latency),
        PGSS_FIELD(branch.predictor_entries),
        PGSS_FIELD(branch.history_bits),
        PGSS_FIELD(branch.btb_entries),
        PGSS_FIELD(branch.ras_depth),
        PGSS_FIELD(branch.link_reg),
        PGSS_FIELD(pipeline.width),
        PGSS_FIELD(pipeline.mispredict_penalty),
        PGSS_FIELD(pipeline.taken_branch_bubble),
        PGSS_FIELD(pipeline.int_alu_latency),
        PGSS_FIELD(pipeline.int_mul_latency),
        PGSS_FIELD(pipeline.int_div_latency),
        PGSS_FIELD(pipeline.fp_add_latency),
        PGSS_FIELD(pipeline.fp_mul_latency),
        PGSS_FIELD(pipeline.fp_div_latency),
        PGSS_FIELD(pipeline.store_latency),
        PGSS_FIELD(pipeline.store_buffer_entries),
        PGSS_FIELD(pipeline.bytes_per_inst),
        PGSS_FIELD(hashed_bbv.hash_bits),
        PGSS_FIELD(hashed_bbv.bit_range_lo),
        PGSS_FIELD(hashed_bbv.bit_range_hi),
        PGSS_FIELD(hashed_bbv.seed),
    };
#undef PGSS_FIELD
    EXPECT_EQ(edits.size(), 33u);

    auto built = test::twoPhaseWorkload(150'000.0, 2);
    analysis::ProfileCache cache("unused_cache_dir"); // never created
    std::map<std::string, std::string> keys; // path -> what made it
    keys.emplace(cache.pathFor(built.program, {}, 25'000), "default");
    keys.emplace(cache.pathFor(built.program, {}, 50'000),
                 "interval_ops");
    EXPECT_EQ(keys.size(), 2u);
    for (const auto &[field, edit] : edits) {
        sim::EngineConfig config;
        edit(config);
        const auto [it, fresh] = keys.emplace(
            cache.pathFor(built.program, config, 25'000), field);
        EXPECT_TRUE(fresh)
            << field << " shares its cache file with " << it->second;
    }
}

namespace
{

std::uint64_t
quarantinedCount()
{
    return util::fi::counter("cache.quarantined")
        .load(std::memory_order_relaxed);
}

/** A cache directory holding the small profile, built through
 * loadOrBuild, plus the undamaged profile's bytes. */
struct CorruptionFixture : ::testing::Test
{
    std::string dir = test::uniqueTempDir("pgss_profile_corruption");
    analysis::ProfileCache cache{dir};
    std::string path =
        cache.pathFor(smallWorkload().program, {}, small_interval);
    std::vector<std::uint8_t> good;

    void SetUp() override
    {
        util::fi::reset();
        fs::remove_all(dir);
        good = analysis::serializeProfile(loadOrBuild());
        std::vector<std::uint8_t> on_disk;
        ASSERT_TRUE(util::readFileBytes(path, on_disk));
        ASSERT_EQ(on_disk, good);
        ASSERT_GT(good.size(), 64u);
    }
    void TearDown() override
    {
        util::fi::reset();
        fs::remove_all(dir);
    }

    IntervalProfile loadOrBuild()
    {
        return cache.loadOrBuild(smallWorkload().program, {},
                                 small_interval);
    }

    std::size_t quarantinedFiles() const
    {
        std::size_t n = 0;
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".corrupt")
                ++n;
        return n;
    }

    static util::ReadError readError(const std::vector<std::uint8_t> &b)
    {
        util::ReadError err;
        analysis::deserializeProfile(b, err);
        return err;
    }

    /** A damaged cache entry is set aside and ground truth rebuilt:
     * @p rebuilt and the rewritten file equal the undamaged profile
     * byte for byte. */
    void expectQuarantinedAndRebuilt(const IntervalProfile &rebuilt,
                                     std::uint64_t quarantined_before)
    {
        EXPECT_EQ(analysis::serializeProfile(rebuilt), good);
        EXPECT_EQ(quarantinedFiles(), 1u);
        EXPECT_TRUE(fs::exists(path + ".corrupt"));
        EXPECT_EQ(quarantinedCount(), quarantined_before + 1);
        std::vector<std::uint8_t> on_disk;
        ASSERT_TRUE(util::readFileBytes(path, on_disk));
        EXPECT_EQ(on_disk, good);
    }
};

} // namespace

TEST_F(CorruptionFixture, TruncationMatrixIsAlwaysDetected)
{
    // Sweep truncation points across the whole file, hitting both
    // sealed sections (header, intervals).
    const std::size_t step = std::max<std::size_t>(
        1, good.size() / 37); // odd step: lands mid-field too
    for (std::size_t len = 0; len < good.size(); len += step) {
        const std::vector<std::uint8_t> cut(
            good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_NE(readError(cut), util::ReadError::None)
            << "truncated to " << len << " bytes deserialized cleanly";
    }
}

TEST_F(CorruptionFixture, BitFlipMatrixIsAlwaysDetected)
{
    // One flipped bit anywhere outside the version word is damage.
    const std::size_t step = std::max<std::size_t>(1, good.size() / 53);
    for (std::size_t off = 0; off < good.size(); off += step) {
        if (off >= 4 && off < 8)
            continue;
        for (const int bit : {0, 7}) {
            std::vector<std::uint8_t> flipped = good;
            flipped[off] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_EQ(readError(flipped), util::ReadError::Corrupt)
                << "flip at byte " << off << " bit " << bit;
        }
    }
    // A flip in the version word (bytes 4..7, little-endian) reads as
    // another format version: a detected miss, never a wrong answer.
    for (std::size_t off = 4; off < 8; ++off) {
        std::vector<std::uint8_t> flipped = good;
        flipped[off] ^= 1;
        EXPECT_EQ(readError(flipped), util::ReadError::Stale)
            << "flip in version byte " << off;
    }
}

TEST_F(CorruptionFixture, StaleVersionIsMissNotQuarantine)
{
    // A file from a previous format version is a silent cache miss: it
    // is rebuilt in place and never quarantined (a version bump would
    // otherwise litter *.corrupt files and trip the clean-run gate).
    std::vector<std::uint8_t> stale = good;
    stale[4] = static_cast<std::uint8_t>(stale[4] - 1);
    ASSERT_EQ(readError(stale), util::ReadError::Stale);
    ASSERT_TRUE(util::atomicWriteFile(path, stale.data(), stale.size()));

    const std::uint64_t before = quarantinedCount();
    EXPECT_EQ(analysis::serializeProfile(loadOrBuild()), good);
    EXPECT_EQ(quarantinedFiles(), 0u);
    EXPECT_EQ(quarantinedCount(), before);
    std::vector<std::uint8_t> on_disk;
    ASSERT_TRUE(util::readFileBytes(path, on_disk));
    EXPECT_EQ(on_disk, good);
}

TEST_F(CorruptionFixture, OnDiskBitFlipIsQuarantinedAndRebuilt)
{
    std::vector<std::uint8_t> damaged = good;
    damaged[damaged.size() / 2] ^= 0x10;
    ASSERT_TRUE(
        util::atomicWriteFile(path, damaged.data(), damaged.size()));
    const std::uint64_t before = quarantinedCount();
    expectQuarantinedAndRebuilt(loadOrBuild(), before);
}

TEST_F(CorruptionFixture, InjectedReadCorruptionMatchesOnDiskDamage)
{
    // The cache.read flip site drives exactly the path real disk
    // damage takes: detect, quarantine, rebuild.
    ASSERT_TRUE(util::fi::configure("site=cache.read,mode=flip-nth:1"));
    const std::uint64_t before = quarantinedCount();
    const IntervalProfile rebuilt = loadOrBuild();
    util::fi::configure("");
    expectQuarantinedAndRebuilt(rebuilt, before);
}
