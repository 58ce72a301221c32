/**
 * @file
 * obs/prometheus: the text-exposition encoder behind
 * `pgss_report metrics`, plus the small parser the tests use to
 * validate its output.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/analyze.hh"
#include "obs/prometheus.hh"

using namespace pgss::obs;

namespace
{

std::string
renderToString(const std::vector<MetricFamily> &families)
{
    std::ostringstream os;
    renderPromText(os, families);
    return os.str();
}

TEST(PromName, SanitizesDottedPaths)
{
    EXPECT_EQ(promMetricName("perf.mode.functional_fast.mips"),
              "pgss_perf_mode_functional_fast_mips");
    EXPECT_EQ(promMetricName("stats.engine.l1d.miss_ratio"),
              "pgss_stats_engine_l1d_miss_ratio");
    EXPECT_EQ(promMetricName("weird-path+x"), "pgss_weird_path_x");
}

TEST(PromEscape, HelpText)
{
    EXPECT_EQ(promEscapeHelp("back\\slash"), "back\\\\slash");
    EXPECT_EQ(promEscapeHelp("two\nlines"), "two\\nlines");
    // Quotes are NOT escaped in HELP.
    EXPECT_EQ(promEscapeHelp("say \"hi\""), "say \"hi\"");
}

TEST(PromRender, CounterVsGauge)
{
    MetricFamily c;
    c.name = "pgss_ops_total";
    c.help = "ops";
    c.type = MetricType::Counter;
    c.value = 42.0;
    MetricFamily g;
    g.name = "pgss_temperature";
    g.help = "temp";
    g.type = MetricType::Gauge;
    g.value = 1.5;

    const std::string text = renderToString({c, g});
    EXPECT_NE(text.find("# TYPE pgss_ops_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE pgss_temperature gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("pgss_ops_total 42\n"), std::string::npos);
    EXPECT_NE(text.find("pgss_temperature 1.5\n"),
              std::string::npos);
}

TEST(PromRender, RoundTripsThroughParser)
{
    MetricFamily f;
    f.name = "pgss_x";
    f.help = "with \"quotes\" and a\nnewline";
    f.type = MetricType::Gauge;
    f.value = 3.25;

    ParsedFamilies parsed;
    std::string err;
    ASSERT_TRUE(parsePrometheusText(renderToString({f}), &parsed,
                                    &err))
        << err;
    ASSERT_EQ(parsed.samples.size(), 1u);
    EXPECT_EQ(parsed.samples[0].name, "pgss_x");
    EXPECT_DOUBLE_EQ(parsed.samples[0].value, 3.25);
    ASSERT_EQ(parsed.types.size(), 1u);
    EXPECT_EQ(parsed.types[0].first, "pgss_x");
    EXPECT_EQ(parsed.types[0].second, "gauge");
}

TEST(PromParse, RejectsMalformed)
{
    ParsedFamilies parsed;
    std::string err;
    EXPECT_FALSE(
        parsePrometheusText("pgss bad name 1\n", &parsed, &err));
    EXPECT_FALSE(parsePrometheusText("pgss_x{unclosed=\"v} 1\n",
                                     &parsed, &err));
    // The encoder writes no labels: a well-formed labelled line is
    // rejected too.
    EXPECT_FALSE(
        parsePrometheusText("pgss_x{k=\"v\"} 1\n", &parsed, &err));
    EXPECT_FALSE(
        parsePrometheusText("pgss_x notanumber\n", &parsed, &err));
}

TEST(PromFromValues, DefaultTypesAndDuplicateDrop)
{
    EXPECT_EQ(defaultMetricType("perf.mode.detailed.ops"),
              MetricType::Counter);
    EXPECT_EQ(defaultMetricType("perf.mode.detailed.seconds"),
              MetricType::Counter);
    EXPECT_EQ(defaultMetricType("perf.mode.detailed.mips"),
              MetricType::Gauge);
    EXPECT_EQ(defaultMetricType("stats.pgss.samples"),
              MetricType::Gauge);

    // Two dotted paths that sanitize to the same family name: the
    // second is dropped, never emitted twice.
    const std::vector<std::pair<std::string, double>> values = {
        {"a.b", 1.0},
        {"a_b", 2.0},
    };
    const auto families = familiesFromValues(
        values, [](const std::string &) { return MetricType::Gauge; });
    ASSERT_EQ(families.size(), 1u);
    EXPECT_DOUBLE_EQ(families[0].value, 1.0);
}

/**
 * Golden file: `pgss_report metrics` over the committed golden_a.json
 * must keep producing byte-identical text. Regenerate (after a
 * deliberate format change) with:
 *   build/tools/pgss_report metrics tests/data/golden_a.json \
 *     > tests/data/golden_a_metrics.txt
 */
TEST(PromGolden, ReportMetricsMatchesGoldenFile)
{
    LoadedReport report;
    std::string err;
    ASSERT_TRUE(loadReport(
        std::string(PGSS_TEST_DATA_DIR) + "/golden_a.json", report,
        &err))
        << err;
    const std::string text =
        renderToString(familiesFromReport(report));

    std::ifstream golden(std::string(PGSS_TEST_DATA_DIR) +
                         "/golden_a_metrics.txt");
    ASSERT_TRUE(golden) << "missing golden_a_metrics.txt";
    std::stringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(text, want.str());

    // And whatever we emit must be valid exposition text.
    ParsedFamilies parsed;
    ASSERT_TRUE(parsePrometheusText(text, &parsed, &err)) << err;
    EXPECT_FALSE(parsed.samples.empty());
}

} // namespace
