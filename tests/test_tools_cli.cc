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

TEST(BenchHistoryCli, MissingBaselineIsExit3WithActionableError)
{
    const RunResult res = run(
        toolPath("pgss_bench_history") + " check " +
        dataPath("golden_profile_a.json") +
        " --baseline=/nonexistent/BENCH_pr0.json");
    EXPECT_EQ(res.exit_code, 3) << res.output;
    EXPECT_NE(res.output.find("bad baseline"), std::string::npos)
        << res.output;
    // The error must tell the user exactly how to fix it.
    EXPECT_NE(res.output.find("pgss_bench_history snapshot"),
              std::string::npos)
        << res.output;
}

TEST(BenchHistoryCli, MalformedBaselineIsExit3)
{
    const std::string bad =
        "/tmp/pgss_test_bad_baseline_" +
        std::to_string(::getpid()) + ".json";
    std::ofstream(bad) << "{not json";
    RunResult res = run(toolPath("pgss_bench_history") + " check " +
                        dataPath("golden_profile_a.json") +
                        " --baseline=" + bad);
    EXPECT_EQ(res.exit_code, 3) << res.output;

    // Valid JSON but no perf.<mode>.mips: still a baseline problem,
    // not a vacuous pass.
    std::ofstream(bad)
        << "{\"schema\":\"pgss-bench-snapshot\",\"label\":\"x\"}";
    res = run(toolPath("pgss_bench_history") + " check " +
              dataPath("golden_profile_a.json") + " --baseline=" + bad);
    EXPECT_EQ(res.exit_code, 3) << res.output;
    EXPECT_NE(res.output.find("no perf.<mode>.mips"),
              std::string::npos)
        << res.output;
    std::remove(bad.c_str());
}

TEST(BenchHistoryCli, ModeMissingFromBaselineIsExit3)
{
    // A baseline that predates one of the report's perf modes (e.g.
    // a new execution backend) must not silently skip that mode: the
    // gate demands a refreshed baseline instead. golden_profile_a.json
    // profiles both functional_fast and detailed_measure; this
    // baseline only knows the former.
    const std::string bad =
        "/tmp/pgss_test_partial_baseline_" +
        std::to_string(::getpid()) + ".json";
    std::ofstream(bad)
        << "{\"schema\":\"pgss-bench-snapshot\",\"label\":\"old\","
           "\"perf\":{\"mode.functional_fast\":{\"mips\":2.0}}}";
    const RunResult res =
        run(toolPath("pgss_bench_history") + " check " +
            dataPath("golden_profile_a.json") + " --baseline=" + bad);
    EXPECT_EQ(res.exit_code, 3) << res.output;
    EXPECT_NE(
        res.output.find("perf.mode.detailed_measure.mips"),
        std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("missing from baseline"),
              std::string::npos)
        << res.output;
    // The error must tell the user exactly how to fix it.
    EXPECT_NE(res.output.find("pgss_bench_history snapshot"),
              std::string::npos)
        << res.output;
    std::remove(bad.c_str());
}

TEST(BenchHistoryCli, GoodBaselineStillPasses)
{
    // A report checked against its own snapshot can never regress.
    const std::string snap = "/tmp/pgss_test_self_baseline_" +
                             std::to_string(::getpid()) + ".json";
    RunResult res =
        run(toolPath("pgss_bench_history") + " snapshot " +
            dataPath("golden_profile_a.json") + " " + snap);
    ASSERT_EQ(res.exit_code, 0) << res.output;
    res = run(toolPath("pgss_bench_history") + " check " +
              dataPath("golden_profile_a.json") + " --baseline=" + snap);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("OK"), std::string::npos)
        << res.output;
    std::remove(snap.c_str());
}

TEST(BenchHistoryCli, ReportWithoutProfileIsRefused)
{
    // golden_a.json is a version-1 report with a "perf" section but
    // no profile: neither snapshot nor check may pass on it.
    const std::string snap = "/tmp/pgss_test_noprofile_snap_" +
                             std::to_string(::getpid()) + ".json";
    RunResult res =
        run(toolPath("pgss_bench_history") + " snapshot " +
            dataPath("golden_a.json") + " " + snap);
    EXPECT_NE(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("no profile section"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("--profile"), std::string::npos)
        << res.output;
    EXPECT_FALSE(std::ifstream(snap).good());

    res = run(toolPath("pgss_bench_history") + " check " +
              dataPath("golden_a.json") + " --baseline=" +
              dataPath("golden_a.json"));
    EXPECT_NE(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("--profile"), std::string::npos)
        << res.output;
}

TEST(BenchHistoryCli, TruncatedProfileIsRefused)
{
    // A wrapped span ring undercounts every flat row, so a truncated
    // profile is refused even though its numbers look plausible.
    const std::string report = "/tmp/pgss_test_truncated_" +
                               std::to_string(::getpid()) + ".json";
    const std::string baseline = "/tmp/pgss_test_truncated_base_" +
                                 std::to_string(::getpid()) + ".json";
    std::ofstream(report)
        << "{\"schema\":\"pgss-run-report\",\"schema_version\":2,"
           "\"program\":\"x\",\"stats\":{},\"profile\":{"
           "\"schema_version\":1,\"spans_dropped\":5,"
           "\"truncated\":true,\"flat\":{\"engine.functional_fast\":"
           "{\"cat\":\"ff\",\"calls\":2,\"total_seconds\":1.0,"
           "\"ops\":1000000,\"mips\":1.0}}}}";
    std::ofstream(baseline)
        << "{\"schema\":\"pgss-bench-snapshot\",\"label\":\"b\","
           "\"perf\":{\"mode.functional_fast\":{\"mips\":1.0}}}";
    RunResult res = run(toolPath("pgss_bench_history") + " snapshot " +
                        report + " " + report + ".snap");
    EXPECT_NE(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("truncated profile"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("--profile"), std::string::npos)
        << res.output;

    res = run(toolPath("pgss_bench_history") + " check " + report +
              " --baseline=" + baseline);
    EXPECT_NE(res.exit_code, 0) << res.output;
    EXPECT_NE(res.output.find("truncated profile"), std::string::npos)
        << res.output;
    std::remove(report.c_str());
    std::remove(baseline.c_str());
}

TEST(BenchHistoryCli, UsageErrorsStayExit2)
{
    EXPECT_EQ(run(toolPath("pgss_bench_history")).exit_code, 2);
    EXPECT_EQ(
        run(toolPath("pgss_bench_history") + " check x.json")
            .exit_code,
        2); // --baseline missing
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

} // namespace
