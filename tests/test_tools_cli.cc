/**
 * @file
 * CLI regression tests for the offline tools, run as real
 * subprocesses (std::system) against the built binaries — the exit
 * codes and one-line errors are contract: CI scripts branch on them.
 * PGSS_TOOL_DIR points at the tools' output directory.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace
{

std::string
toolPath(const std::string &name)
{
    return std::string(PGSS_TOOL_DIR) + "/" + name;
}

std::string
dataPath(const std::string &name)
{
    return std::string(PGSS_TEST_DATA_DIR) + "/" + name;
}

struct RunResult
{
    int exit_code = -1;
    std::string output; ///< stdout + stderr
};

/** Run @p cmd, capturing combined output and the real exit code. */
RunResult
run(const std::string &cmd)
{
    const std::string out_path =
        "/tmp/pgss_test_cli_" + std::to_string(::getpid()) + ".out";
    const int rc =
        std::system((cmd + " > " + out_path + " 2>&1").c_str());
    RunResult res;
    res.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    std::ifstream in(out_path);
    std::stringstream ss;
    ss << in.rdbuf();
    res.output = ss.str();
    std::remove(out_path.c_str());
    return res;
}

TEST(ReportCli, MetricsMatchesGoldenFile)
{
    const RunResult res = run(toolPath("pgss_report") + " metrics " +
                              dataPath("golden_a.json"));
    ASSERT_EQ(res.exit_code, 0) << res.output;

    std::ifstream golden(dataPath("golden_a_metrics.txt"));
    ASSERT_TRUE(golden);
    std::stringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(res.output, want.str());
}

TEST(ReportCli, MetricsOnMissingFileFails)
{
    const RunResult res =
        run(toolPath("pgss_report") + " metrics /nonexistent.json");
    EXPECT_EQ(res.exit_code, 1);
}

TEST(ReportCli, ProfileTopMustBePositiveInteger)
{
    const std::string report = dataPath("golden_profile_a.json");
    const std::string profile = toolPath("pgss_report") + " profile ";
    EXPECT_EQ(run(profile + report + " --top=2").exit_code, 0);
    // strtoul reads "abc" as 0 and wraps "-1" round to every row.
    for (const char *bad : {"abc", "-1", "0", "", "3x"}) {
        const RunResult res =
            run(profile + report + " --top=" + bad);
        EXPECT_EQ(res.exit_code, 2) << bad << ": " << res.output;
        EXPECT_NE(res.output.find("usage:"), std::string::npos) << bad;
    }
}

} // namespace
