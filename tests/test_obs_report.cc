/**
 * @file
 * Tests for the run report: CLI flag stripping, meta annotations, the
 * pgss-run-report schema, finalize() writing the report file, and the
 * SIGTERM handler writing a partial report.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/json_read.hh"
#include "obs/report.hh"
#include "obs/spans.hh"
#include "sim/engine.hh"
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

TEST(ObsReport, InitFromCliStripsObservabilityFlags)
{
    // A path in a directory that does not exist: the exit flush this
    // leaves armed fails with a warning instead of writing a file.
    const std::string path =
        pgss::test::uniqueTempDir("pgss_report_strip") +
        "/absent/report.json";
    const std::string flag = "--stats-json=" + path;
    std::vector<char> a1(flag.begin(), flag.end());
    a1.push_back('\0');
    char prog[] = "prog";
    char a2[] = "164.gzip";
    char a3[] = "--profile-out="; // empty value: no profiler installed
    char a4[] = "0.5";
    char *argv[] = {prog, a1.data(), a2, a3, a4, nullptr};
    int argc = 5;

    initFromCli(argc, argv, "test_report");
    EXPECT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "164.gzip");
    EXPECT_STREQ(argv[2], "0.5");
    EXPECT_EQ(argv[3], nullptr);
    EXPECT_EQ(statsJsonPath(), path);
    EXPECT_EQ(profileOutPath(), "");
    EXPECT_EQ(spanProfiler(), nullptr);
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

    const std::string doc = reportJsonString();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"schema\":\"pgss-run-report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"schema_version\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"program\":\"test_report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"meta\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"workload\":\"164.gzip\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"workload_scale\":0.25"), std::string::npos);
    EXPECT_NE(doc.find("\"stats\":{"), std::string::npos);
    // Schema 2: per-mode host timing lives in the profile's engine
    // spans, not in a "perf" section.
    EXPECT_EQ(doc.find("\"perf\""), std::string::npos);
    // Schema 3: no networking fault sites or retry counter.
    EXPECT_EQ(doc.find("\"net\""), std::string::npos);
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
    // Paths in a directory that does not exist, as above.
    const std::string dir =
        pgss::test::uniqueTempDir("pgss_report_env") + "/absent";
    const std::string path = dir + "/env.json";
    ASSERT_EQ(setenv("PGSS_STATS_JSON", path.c_str(), 1), 0);
    char prog[] = "prog";
    char *argv[] = {prog, nullptr};
    int argc = 1;
    initFromCli(argc, argv, "test_report_env");
    EXPECT_EQ(statsJsonPath(), path);
    ASSERT_EQ(unsetenv("PGSS_STATS_JSON"), 0);

    // An explicit flag overrides the environment.
    const std::string flag = "--stats-json=" + dir + "/flag.json";
    std::vector<char> flag_buf(flag.begin(), flag.end());
    flag_buf.push_back('\0');
    char *argv2[] = {prog, flag_buf.data(), nullptr};
    int argc2 = 2;
    initFromCli(argc2, argv2, "test_report_env");
    EXPECT_EQ(statsJsonPath(), dir + "/flag.json");
}

TEST(ObsReport, SigtermFlushesPartialReport)
{
    const std::string path =
        pgss::test::uniqueTempDir("pgss_report_sigterm") + ".json";
    std::remove(path.c_str());

    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // ---- child: a miniature bench binary.
        ::close(ready[0]);
        std::string arg0 = "sigterm_child";
        std::string arg1 = "--stats-json=" + path;
        char *argv_c[] = {arg0.data(), arg1.data(), nullptr};
        int argc_c = 2;
        initFromCli(argc_c, argv_c, "sigterm_child");
        const pgss::workload::BuiltWorkload built =
            pgss::test::twoPhaseWorkload();
        pgss::sim::SimulationEngine engine(built.program,
                                           pgss::sim::EngineConfig{});
        // The exit handlers are installed: tell the parent. The flush
        // allocates, so the signal must not land inside an allocation;
        // from here on the child allocates nothing.
        const char byte = 1;
        if (::write(ready[1], &byte, 1) != 1)
            ::_exit(126);
        ::close(ready[1]);

        // Simulate until killed (run() returns at once after the
        // program halts).
        for (;;)
            engine.run(1'000'000, pgss::sim::SimMode::FunctionalFast);
    }

    // ---- parent.
    ::close(ready[1]);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    // The handler re-raises with default disposition after flushing.
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGTERM);

    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty()) << "no partial report at " << path;
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text, doc, &err)) << err;
    ASSERT_NE(doc.get("partial"), nullptr);
    EXPECT_TRUE(doc.get("partial")->boolean);
    ASSERT_NE(doc.get("program"), nullptr);
    EXPECT_EQ(doc.get("program")->string, "sigterm_child");
    const JsonValue *meta = doc.get("meta");
    ASSERT_NE(meta, nullptr);
    ASSERT_NE(meta->get("exit_reason"), nullptr);
    EXPECT_EQ(meta->get("exit_reason")->string, "sigterm");
    std::remove(path.c_str());
}
