/**
 * @file
 * Tests for the run report: CLI flag stripping, meta annotations, the
 * pgss-run-report schema, perf-registry serialization, and finalize()
 * writing the report file.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/perf.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "tests/helpers.hh"

using namespace pgss::obs;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(ObsPerf, HandleAccumulatesAndComputesMips)
{
    PerfHandle h;
    h.name = "test";
    EXPECT_DOUBLE_EQ(h.mips(), 0.0);
    h.add(2'000'000, 1.0);
    h.add(2'000'000, 1.0);
    EXPECT_EQ(h.calls, 2u);
    EXPECT_EQ(h.ops, 4'000'000u);
    EXPECT_DOUBLE_EQ(h.mips(), 2.0);
}

TEST(ObsPerf, RegistryHandleIsCreateOrGetWithStablePointer)
{
    PerfRegistry reg;
    PerfHandle *a = reg.handle("mode.fast");
    PerfHandle *b = reg.handle("mode.fast");
    EXPECT_EQ(a, b);
    a->add(10, 0.5);
    reg.handle("mode.warm"); // growth must not invalidate a
    EXPECT_EQ(reg.handle("mode.fast")->ops, 10u);
    EXPECT_EQ(reg.handles().size(), 2u);
    reg.reset();
    EXPECT_EQ(a->ops, 0u);
    EXPECT_EQ(a->calls, 0u);
}

TEST(ObsReport, InitFromCliStripsObservabilityFlags)
{
    const std::string report =
        pgss::test::uniqueTempDir("pgss_report_strip") + ".json";
    char prog[] = "prog";
    char a1[] = "--stats-json=/dev/null";
    char a2[] = "164.gzip";
    char a3[] = "--trace-out="; // empty value: no sink installed
    char a4[] = "0.5";
    char *argv[] = {prog, a1, a2, a3, a4, nullptr};
    int argc = 5;

    initFromCli(argc, argv, "test_report");
    EXPECT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "164.gzip");
    EXPECT_STREQ(argv[2], "0.5");
    EXPECT_EQ(argv[3], nullptr);
    EXPECT_EQ(statsJsonPath(), "/dev/null");
    EXPECT_EQ(traceSink(), nullptr);
    (void)report;
}

TEST(ObsReport, ReportCarriesSchemaAndSections)
{
    // Each gtest case runs as its own process under ctest, so the
    // report state must be established here, not by a sibling test.
    char prog[] = "prog";
    char *argv[] = {prog, nullptr};
    int argc = 1;
    initFromCli(argc, argv, "test_report");
    setReportMeta("workload", "164.gzip");
    setReportMeta("workload_scale", 0.25);
    perf().handle("mode.functional_fast")->add(1'000'000, 0.25);

    const std::string doc = reportJsonString();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"schema\":\"pgss-run-report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"program\":\"test_report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"meta\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"workload\":\"164.gzip\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"workload_scale\":0.25"), std::string::npos);
    EXPECT_NE(doc.find("\"perf\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"mode.functional_fast\""), std::string::npos);
    EXPECT_NE(doc.find("\"mips\":4"), std::string::npos);
    EXPECT_NE(doc.find("\"stats\":{"), std::string::npos);
}

TEST(ObsReport, MetaLastWritePerKeyWins)
{
    setReportMeta("workload", "175.vpr");
    const std::string doc = reportJsonString();
    EXPECT_NE(doc.find("\"workload\":\"175.vpr\""), std::string::npos);
    EXPECT_EQ(doc.find("\"workload\":\"164.gzip\""),
              std::string::npos);
}

TEST(ObsReport, FinalizeWritesTheReportFile)
{
    const std::string path =
        pgss::test::uniqueTempDir("pgss_report_out") + ".json";
    char prog[] = "prog";
    std::string flag = "--stats-json=" + path;
    std::vector<char> flag_buf(flag.begin(), flag.end());
    flag_buf.push_back('\0');
    char *argv[] = {prog, flag_buf.data(), nullptr};
    int argc = 2;
    initFromCli(argc, argv, "test_report_finalize");

    ASSERT_TRUE(finalize());
    const std::string doc = readFile(path);
    EXPECT_NE(doc.find("\"schema\":\"pgss-run-report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"program\":\"test_report_finalize\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsReport, EnvFallbackSuppliesPaths)
{
    const std::string path =
        pgss::test::uniqueTempDir("pgss_report_env") + ".json";
    ASSERT_EQ(setenv("PGSS_STATS_JSON", path.c_str(), 1), 0);
    char prog[] = "prog";
    char *argv[] = {prog, nullptr};
    int argc = 1;
    initFromCli(argc, argv, "test_report_env");
    EXPECT_EQ(statsJsonPath(), path);
    ASSERT_EQ(unsetenv("PGSS_STATS_JSON"), 0);

    // An explicit flag overrides the environment.
    char flag[] = "--stats-json=/dev/null";
    char *argv2[] = {prog, flag, nullptr};
    int argc2 = 2;
    initFromCli(argc2, argv2, "test_report_env");
    EXPECT_EQ(statsJsonPath(), "/dev/null");
}
