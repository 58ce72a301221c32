/**
 * @file Tests for bench::runSuite, the one runner every journaling
 * bench uses: rows in entry order, --journal records, --resume
 * replays, and the records a resume must not trust.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/support.hh"
#include "obs/json_read.hh"
#include "tests/helpers.hh"
#include "util/journal.hh"

using namespace pgss;
namespace fs = std::filesystem;

namespace
{

constexpr std::size_t kWidth = 3;

struct BenchSupport : ::testing::Test
{
    std::string dir;
    std::vector<bench::Entry> entries;
    std::vector<int> calls; ///< body calls per entry

    void SetUp() override
    {
        dir = test::uniqueTempDir("pgss_bench_support");
        fs::remove_all(dir);
        fs::create_directories(dir);
        ::setenv("PGSS_SCALE", "0.02", 1);
        ::unsetenv("PGSS_JOURNAL");
        ::unsetenv("PGSS_RESUME");
        for (const char *name : {"100.alpha", "200.beta", "300.gamma"}) {
            bench::Entry e;
            e.name = name;
            entries.push_back(e);
        }
    }
    void TearDown() override
    {
        ::unsetenv("PGSS_SCALE");
        ::unsetenv("PGSS_JOBS");
        fs::remove_all(dir);
    }

    std::string journal() const { return dir + "/run.journal"; }

    /** bench::init with the journal flags, as a bench's main() gets. */
    static void configure(const std::string &path, bool resume)
    {
        std::vector<std::string> args = {"test_bench_support"};
        if (!path.empty())
            args.push_back("--journal=" + path);
        if (resume)
            args.push_back("--resume");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int argc = static_cast<int>(args.size());
        bench::init(argc, argv.data(), "test_bench_support");
    }

    /** Values whose %.17g text must round-trip exactly. */
    static std::vector<double> expected(std::size_t i)
    {
        const double x = static_cast<double>(i + 1);
        return {0.1 * x, 1.0 / (3.0 * x), 1e-300 * x};
    }

    /** runSuite() over entries, counting the body's calls. */
    std::vector<std::vector<double>> run(const std::string &stage = "t",
                                         std::size_t throw_at = 99)
    {
        calls.assign(entries.size(), 0);
        return bench::runSuite(entries, stage, kWidth,
                               [&](std::size_t i) {
                                   ++calls[i];
                                   if (i == throw_at)
                                       throw std::runtime_error("boom");
                                   return expected(i);
                               });
    }

    void expectAllRows(const std::vector<std::vector<double>> &rows)
    {
        ASSERT_EQ(rows.size(), entries.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(rows[i], expected(i)) << entries[i].name;
    }

    std::vector<std::string> lines() const
    {
        std::vector<std::string> out;
        EXPECT_TRUE(util::Journal::readLines(journal(), out));
        return out;
    }

    /** Rewrite the journal with @p entry's row text replaced. */
    void damageRow(const std::string &entry, const std::string &row)
    {
        std::vector<std::string> ls = lines();
        bool found = false;
        for (std::string &line : ls) {
            obs::JsonValue v;
            ASSERT_TRUE(obs::parseJson(line, v));
            if (v.get("entry")->string != entry)
                continue;
            const std::string &old = v.get("row")->string;
            line.replace(line.find(old), old.size(), row);
            found = true;
        }
        ASSERT_TRUE(found) << entry;
        std::ofstream out(journal(), std::ios::trunc);
        for (const std::string &line : ls)
            out << line << '\n';
    }
};

} // namespace

TEST_F(BenchSupport, RowsMatchWithAndWithoutJournal)
{
    configure("", false);
    const auto plain = run();
    expectAllRows(plain);

    configure(journal(), false);
    EXPECT_EQ(run(), plain);
    EXPECT_EQ(calls, std::vector<int>(entries.size(), 1));
    EXPECT_EQ(lines().size(), entries.size()); // one record per entry
}

TEST_F(BenchSupport, ParallelRowsMatchSerial)
{
    configure(journal(), false);
    const auto serial = run();
    ::setenv("PGSS_JOBS", "3", 1);
    configure(dir + "/parallel.journal", false);
    EXPECT_EQ(run(), serial);
}

TEST_F(BenchSupport, CompleteJournalReplaysWithoutCallingTheBody)
{
    configure(journal(), false);
    run();
    configure(journal(), true);
    expectAllRows(run());
    EXPECT_EQ(calls, std::vector<int>(entries.size(), 0));
    EXPECT_EQ(lines().size(), entries.size()); // replays append nothing
}

TEST_F(BenchSupport, DamagedRecordRerunsOnlyItsEntry)
{
    configure(journal(), false);
    run();
    damageRow("100.alpha", "0.10000000000000001 0.33333333333333331");
    damageRow("300.gamma", "0.30000000000000004 x 3.0000000000000001e-300");

    configure(journal(), true);
    ::testing::internal::CaptureStderr();
    const auto rows = run();
    const std::string err = ::testing::internal::GetCapturedStderr();
    expectAllRows(rows);
    EXPECT_EQ(calls, (std::vector<int>{1, 0, 1}));
    EXPECT_NE(err.find("100.alpha re-runs"), std::string::npos) << err;
    EXPECT_NE(err.find("300.gamma re-runs"), std::string::npos) << err;
    EXPECT_EQ(err.find("200.beta re-runs"), std::string::npos) << err;
    EXPECT_NE(err.find("does not hold 3 numbers"), std::string::npos)
        << err;

    // The re-runs appended good records, which the next resume uses.
    configure(journal(), true);
    expectAllRows(run());
    EXPECT_EQ(calls, std::vector<int>(entries.size(), 0));
}

TEST_F(BenchSupport, ThrowingBodyGivesEmptyRowAndErrorRecord)
{
    configure(journal(), false);
    const auto rows = run("t", 1);
    ASSERT_EQ(rows.size(), entries.size());
    EXPECT_TRUE(rows[1].empty());
    EXPECT_EQ(rows[0], expected(0));
    EXPECT_EQ(rows[2], expected(2));

    std::size_t errors = 0;
    for (const std::string &line : lines()) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::parseJson(line, v));
        if (v.get("ok")->boolean)
            continue;
        ++errors;
        EXPECT_EQ(v.get("entry")->string, "200.beta");
        EXPECT_EQ(v.get("error")->string, "boom");
    }
    EXPECT_EQ(errors, 1u);

    // A failure is retried without a damaged-record warning.
    configure(journal(), true);
    ::testing::internal::CaptureStderr();
    expectAllRows(run());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(calls, (std::vector<int>{0, 1, 0}));
    EXPECT_EQ(err.find("re-runs"), std::string::npos) << err;
}

TEST_F(BenchSupport, OtherStageIsNotReplayed)
{
    configure(journal(), false);
    run("first");
    configure(journal(), true);
    expectAllRows(run("second"));
    EXPECT_EQ(calls, std::vector<int>(entries.size(), 1));
}

TEST_F(BenchSupport, OtherScaleIsNotReplayed)
{
    configure(journal(), false);
    run();
    ::setenv("PGSS_SCALE", "0.05", 1);
    configure(journal(), true);
    ::testing::internal::CaptureStderr();
    expectAllRows(run());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(calls, std::vector<int>(entries.size(), 1));
    EXPECT_NE(err.find("another workload scale"), std::string::npos)
        << err;

    // Records of both scales are kept; each scale replays its own.
    ::setenv("PGSS_SCALE", "0.02", 1);
    configure(journal(), true);
    expectAllRows(run());
    EXPECT_EQ(calls, std::vector<int>(entries.size(), 0));
}

TEST_F(BenchSupport, UnusedJournalWarnsFromFinish)
{
    configure(journal(), false);
    ::testing::internal::CaptureStderr();
    bench::finish();
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("unused"),
              std::string::npos);

    configure(journal(), false);
    run();
    ::testing::internal::CaptureStderr();
    bench::finish();
    EXPECT_EQ(::testing::internal::GetCapturedStderr().find("unused"),
              std::string::npos);
}
