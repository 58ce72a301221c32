/**
 * @file
 * Offline-analysis tests: loading/flattening run reports, A-vs-B
 * diffs on the golden reports in tests/data/, timeline rendering,
 * and the report sanity checks behind `pgss_report check`.
 */

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze.hh"

using pgss::obs::CheckResult;
using pgss::obs::DiffRow;
using pgss::obs::LoadedReport;

namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(PGSS_TEST_DATA_DIR) + "/" + name;
}

LoadedReport
loadGolden(const std::string &name)
{
    LoadedReport r;
    std::string err;
    EXPECT_TRUE(pgss::obs::loadReport(goldenPath(name), r, &err))
        << err;
    return r;
}

} // anonymous namespace

TEST(ObsAnalyzeLoad, FlattensNumericLeaves)
{
    const LoadedReport a = loadGolden("golden_a.json");
    EXPECT_EQ(a.program, "golden_a");
    EXPECT_FALSE(a.partial);
    EXPECT_DOUBLE_EQ(a.value("stats.engine.total_ops"), 1040000.0);
    EXPECT_DOUBLE_EQ(a.value("stats.controller.cpi.phase0"), 1.25);
    // golden_a is a version-1 report: its "perf" section still loads.
    EXPECT_DOUBLE_EQ(a.value("perf.mode.detailed_measure.mips"), 0.2);
    EXPECT_DOUBLE_EQ(a.value("meta.scale"), 1.5);
    // Absent path reads as NaN, and timelines are not flattened.
    EXPECT_TRUE(std::isnan(a.value("stats.nope")));
    EXPECT_TRUE(std::isnan(a.value("timelines.global_ops")));
}

TEST(ObsAnalyzeLoad, CommittedBenchHistoryLoads)
{
    // BENCH_pr4/7/9.json at the repository root are the per-mode MIPS
    // history of the deleted microrate gate; they stay readable.
    for (const char *name :
         {"BENCH_pr4.json", "BENCH_pr7.json", "BENCH_pr9.json"}) {
        const LoadedReport r =
            loadGolden(std::string("../../") + name);
        EXPECT_GT(r.value("perf.mode.functional_warm.mips"), 0.0)
            << name;
    }
}

TEST(ObsAnalyzeLoad, RejectsGarbage)
{
    LoadedReport r;
    std::string err;
    EXPECT_FALSE(pgss::obs::loadReportFromString("{oops", r, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(
        pgss::obs::loadReport(goldenPath("missing.json"), r, &err));
    EXPECT_FALSE(pgss::obs::loadReportFromString("[1,2]", r, &err));
}

TEST(ObsAnalyzeDiff, SharedPathsGetPercentDeltas)
{
    const LoadedReport a = loadGolden("golden_a.json");
    const LoadedReport b = loadGolden("golden_b.json");
    const std::vector<DiffRow> rows = pgss::obs::diffReports(a, b);

    // Every shared numeric path appears exactly once.
    const auto find = [&rows](const std::string &path) -> const
        DiffRow * {
        for (const DiffRow &r : rows)
            if (r.path == path)
                return &r;
        return nullptr;
    };
    const DiffRow *ops = find("stats.engine.total_ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_DOUBLE_EQ(ops->a, 1040000.0);
    EXPECT_DOUBLE_EQ(ops->b, 1150000.0);
    EXPECT_NEAR(ops->percent(), 10.577, 0.01);

    const DiffRow *cpi = find("stats.controller.cpi.phase1");
    ASSERT_NE(cpi, nullptr);
    EXPECT_NEAR(cpi->percent(), -4.0, 1e-9);

    // "late_only" exists only in B: not a shared row.
    EXPECT_EQ(find("stats.controller.late_only"), nullptr);

    // Rendered diff mentions the header programs and a delta.
    std::ostringstream os;
    pgss::obs::renderDiff(os, a, b);
    EXPECT_NE(os.str().find("golden_a"), std::string::npos);
    EXPECT_NE(os.str().find("stats.engine.total_ops"),
              std::string::npos);
    EXPECT_NE(os.str().find("%"), std::string::npos);
    EXPECT_NE(os.str().find("only in B"), std::string::npos);
}

TEST(ObsAnalyzeDiff, PercentEdgeCases)
{
    DiffRow same{"x", 4.0, 4.0};
    EXPECT_DOUBLE_EQ(same.percent(), 0.0);
    DiffRow from_zero{"x", 0.0, 2.0};
    EXPECT_TRUE(std::isnan(from_zero.percent()));
    DiffRow negative{"x", -2.0, -3.0};
    EXPECT_DOUBLE_EQ(negative.percent(), -50.0);
}

TEST(ObsAnalyzeRender, ShowsTimelinesAndCurves)
{
    const LoadedReport a = loadGolden("golden_a.json");
    std::ostringstream os;
    pgss::obs::renderReport(os, a);
    const std::string out = os.str();
    // Phase strip with both phase glyphs, plus both CI curve tables.
    EXPECT_NE(out.find("run 'pgss'"), std::string::npos);
    EXPECT_NE(out.find("phase |0"), std::string::npos);
    EXPECT_NE(out.find("1|"), std::string::npos);
    EXPECT_NE(out.find("phase 0 CI convergence"), std::string::npos);
    EXPECT_NE(out.find("phase 1 CI convergence"), std::string::npos);
    EXPECT_NE(out.find("closed"), std::string::npos);
    EXPECT_NE(out.find("controller.cpi.phase0"), std::string::npos);
}

TEST(ObsAnalyzeCheck, GoldenReportsPass)
{
    for (const char *name : {"golden_a.json", "golden_b.json"}) {
        const CheckResult res =
            pgss::obs::checkReport(loadGolden(name));
        EXPECT_TRUE(res.ok()) << name << ": "
                              << (res.violations.empty()
                                      ? ""
                                      : res.violations[0]);
    }
}

TEST(ObsAnalyzeCheck, CatchesSchemaAndAlignmentViolations)
{
    LoadedReport r;
    std::string err;
    // Misaligned convergence arrays and a backwards op axis.
    ASSERT_TRUE(pgss::obs::loadReportFromString(
        "{\"schema\":\"pgss-run-report\",\"schema_version\":2,"
        "\"program\":\"x\",\"stats\":{},"
        "\"timelines\":{\"schema_version\":2,"
        "\"runs\":[{\"label\":\"r\",\"convergence\":{\"0\":"
        "{\"op\":[2,1],\"samples\":[2,1],\"mean\":[1,1],"
        "\"ci_rel\":[0.1,0.1],\"closed\":[0]}}}]}}",
        r, &err))
        << err;
    const CheckResult res = pgss::obs::checkReport(r);
    // Backwards convergence op axis, decreasing sample count, and
    // misaligned 'closed' array are distinct findings.
    EXPECT_EQ(res.violations.size(), 3u);

    LoadedReport wrong;
    ASSERT_TRUE(pgss::obs::loadReportFromString(
        "{\"schema\":\"other\",\"program\":\"\"}", wrong, &err));
    const CheckResult res2 = pgss::obs::checkReport(wrong);
    EXPECT_GE(res2.violations.size(), 4u); // schema, version,
                                           // program, stats
}

TEST(ObsAnalyzeCheck, PartialReportIsWarningNotViolation)
{
    LoadedReport r;
    std::string err;
    ASSERT_TRUE(pgss::obs::loadReportFromString(
        "{\"schema\":\"pgss-run-report\",\"schema_version\":2,"
        "\"program\":\"x\",\"partial\":true,\"stats\":{}}",
        r, &err))
        << err;
    const CheckResult res = pgss::obs::checkReport(r);
    EXPECT_TRUE(res.ok());
    EXPECT_FALSE(res.warnings.empty());
}

TEST(ObsAnalyzeCheck, SchemaTwoThresholdSeriesStillPasses)
{
    LoadedReport r;
    std::string err;
    // Before the adaptive threshold left, reports carried a
    // pgss.threshold stat (report schema 4) and a threshold series per
    // timeline run (timelines schema 2); such a report still loads
    // and passes check.
    ASSERT_TRUE(pgss::obs::loadReportFromString(
        "{\"schema\":\"pgss-run-report\",\"schema_version\":4,"
        "\"program\":\"x\",\"stats\":{\"pgss\":{\"threshold\":0.1}},"
        "\"timelines\":{\"schema_version\":2,"
        "\"runs\":[{\"label\":\"r\",\"threshold\":"
        "{\"op\":[10,20],\"radians\":[0.1,0.2]}}]}}",
        r, &err))
        << err;
    const CheckResult res = pgss::obs::checkReport(r);
    EXPECT_TRUE(res.violations.empty());
}

TEST(ObsAnalyzeProfile, FlattensProfilePathsAndPassesChecks)
{
    const LoadedReport a = loadGolden("golden_profile_a.json");
    EXPECT_DOUBLE_EQ(a.value("profile.wall_seconds"), 2.0);
    EXPECT_DOUBLE_EQ(a.value("profile.spans_recorded"), 34.0);
    EXPECT_DOUBLE_EQ(
        a.value("profile.categories.ff.self_seconds"), 1.5);
    EXPECT_DOUBLE_EQ(
        a.value("profile.flat.bench.entry.self_seconds"), 0.1);

    const CheckResult res = pgss::obs::checkReport(a);
    EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                  ? ""
                                  : res.violations[0]);
}

TEST(ObsAnalyzeProfile, RenderShowsCategoriesFlatAndTree)
{
    const LoadedReport a = loadGolden("golden_profile_a.json");
    std::ostringstream os;
    pgss::obs::renderProfile(os, a, 20);
    const std::string out = os.str();
    EXPECT_NE(out.find("34 spans"), std::string::npos);
    EXPECT_NE(out.find("by category"), std::string::npos);
    EXPECT_NE(out.find("top spans by self time"), std::string::npos);
    EXPECT_NE(out.find("engine.functional_fast"), std::string::npos);
    EXPECT_NE(out.find("call tree"), std::string::npos);
    // The tree indents children under bench.entry.
    EXPECT_NE(out.find("    engine.functional_fast"),
              std::string::npos);
    // renderReport embeds the same section automatically.
    std::ostringstream full;
    pgss::obs::renderReport(full, a);
    EXPECT_NE(full.str().find("top spans by self time"),
              std::string::npos);
}

TEST(ObsAnalyzeProfile, TopNTruncatesFlatTable)
{
    const LoadedReport a = loadGolden("golden_profile_a.json");
    std::ostringstream os;
    pgss::obs::renderProfile(os, a, 1);
    // Highest self time survives; the rest is elided with a note.
    EXPECT_NE(os.str().find("engine.functional_fast"),
              std::string::npos);
    EXPECT_NE(os.str().find("2 further spans"), std::string::npos);
}

TEST(ObsAnalyzeProfile, DiffMatchesGoldenText)
{
    LoadedReport a = loadGolden("golden_profile_a.json");
    LoadedReport b = loadGolden("golden_profile_b.json");
    // The golden was rendered with bare filenames; the header echoes
    // report.path, so pin it machine-independently.
    a.path = "golden_profile_a.json";
    b.path = "golden_profile_b.json";
    std::ostringstream os;
    pgss::obs::renderProfileDiff(os, a, b);

    std::ifstream golden(goldenPath("golden_profile_diff.txt"));
    ASSERT_TRUE(golden.is_open());
    std::ostringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(os.str(), want.str());
}

TEST(ObsAnalyzeProfile, ChecksCatchBrokenAccounting)
{
    LoadedReport r;
    std::string err;
    // self > total in a flat row, thread sum mismatching the global
    // recorded count, and dropped spans (a warning).
    ASSERT_TRUE(pgss::obs::loadReportFromString(
        "{\"schema\":\"pgss-run-report\",\"schema_version\":2,"
        "\"program\":\"x\",\"stats\":{},"
        "\"profile\":{\"schema_version\":1,\"wall_seconds\":1.0,"
        "\"overhead_ns_per_span\":50.0,\"spans_recorded\":10,"
        "\"spans_dropped\":2,\"truncated\":true,"
        "\"overhead_seconds\":0.05,"
        "\"threads\":[{\"tid\":0,\"name\":\"main\",\"recorded\":7,"
        "\"dropped\":2,\"wrapped\":true}],"
        "\"categories\":{},"
        "\"flat\":{\"bad\":{\"cat\":\"other\",\"calls\":1,"
        "\"total_seconds\":1.0,\"self_seconds\":2.0,\"ops\":0,"
        "\"mips\":0}},\"tree\":[]}}",
        r, &err))
        << err;
    const CheckResult res = pgss::obs::checkReport(r);
    EXPECT_FALSE(res.ok());
    EXPECT_GE(res.violations.size(), 2u); // self>total, thread sum
    bool truncation_warned = false, overhead_warned = false;
    for (const std::string &w : res.warnings) {
        truncation_warned |= w.find("truncated") != std::string::npos;
        overhead_warned |= w.find("2% budget") != std::string::npos;
    }
    EXPECT_TRUE(truncation_warned);
    EXPECT_TRUE(overhead_warned); // 0.05 s of 1.0 s wall is 5%
}
