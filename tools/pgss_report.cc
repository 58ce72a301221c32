/**
 * @file
 * pgss_report — offline analysis of the run-report JSON documents
 * produced by the observability layer (DESIGN.md section 8).
 *
 *   pgss_report show report.json          render tables + timelines
 *   pgss_report report.json               same ("show" is the default)
 *   pgss_report diff a.json b.json        percent deltas, A vs B
 *   pgss_report profile report.json       span profile tables
 *                                         (--top=N widens the list)
 *   pgss_report profile a.json b.json     per-span self-time deltas
 *   pgss_report metrics report.json       Prometheus text exposition
 *                                         of the report's numbers, for
 *                                         pushing finished-run results
 *                                         at a textfile collector
 *   pgss_report check report.json        sanity checks; exit 1 on any
 *                                         violation (the CI gate for
 *                                         observability artefacts)
 *
 * All output is plain text so it survives CI logs and grep.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/analyze.hh"
#include "obs/prometheus.hh"

namespace
{

using pgss::obs::CheckResult;
using pgss::obs::LoadedReport;

int
usage()
{
    std::cerr
        << "usage: pgss_report [show] <report.json>\n"
        << "       pgss_report diff <a.json> <b.json>\n"
        << "       pgss_report profile <report.json> [--top=N]\n"
        << "       pgss_report profile <a.json> <b.json>\n"
        << "       pgss_report metrics <report.json>\n"
        << "       pgss_report check <report.json>\n";
    return 2;
}

/** Pop "--name=value" from @p args into @p value; true if present. */
bool
takeOption(std::vector<std::string> &args, const std::string &name,
           std::string &value)
{
    const std::string prefix = "--" + name + "=";
    for (auto it = args.begin(); it != args.end(); ++it) {
        if (it->rfind(prefix, 0) == 0) {
            value = it->substr(prefix.size());
            args.erase(it);
            return true;
        }
    }
    return false;
}

bool
load(const std::string &path, LoadedReport &out)
{
    std::string err;
    if (pgss::obs::loadReport(path, out, &err)) {
        return true;
    }
    std::cerr << "pgss_report: " << err << "\n";
    return false;
}

void
printCheck(const std::string &what, const CheckResult &res)
{
    for (const std::string &v : res.violations)
        std::cout << "VIOLATION " << what << ": " << v << "\n";
    for (const std::string &w : res.warnings)
        std::cout << "warning " << what << ": " << w << "\n";
}

int
cmdShow(const std::string &path)
{
    LoadedReport report;
    if (!load(path, report))
        return 1;
    pgss::obs::renderReport(std::cout, report);
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    LoadedReport a, b;
    if (!load(path_a, a) || !load(path_b, b))
        return 1;
    pgss::obs::renderDiff(std::cout, a, b);
    return 0;
}

int
cmdProfile(const std::vector<std::string> &paths, std::size_t top_n)
{
    LoadedReport a;
    if (!load(paths[0], a))
        return 1;
    if (paths.size() == 2) {
        LoadedReport b;
        if (!load(paths[1], b))
            return 1;
        pgss::obs::renderProfileDiff(std::cout, a, b);
        return 0;
    }
    pgss::obs::renderProfile(std::cout, a, top_n);
    return 0;
}

int
cmdMetrics(const std::string &path)
{
    LoadedReport report;
    if (!load(path, report))
        return 1;
    pgss::obs::renderPromText(
        std::cout, pgss::obs::familiesFromReport(report));
    return 0;
}

int
cmdCheck(const std::string &report_path)
{
    LoadedReport report;
    if (!load(report_path, report))
        return 1;
    const CheckResult res = pgss::obs::checkReport(report);
    printCheck("report", res);
    if (!res.ok()) {
        std::cout << "FAIL: " << res.violations.size()
                  << " violation(s)\n";
        return 1;
    }
    std::cout << "OK (" << res.warnings.size() << " warning(s))\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "-h" || args[0] == "--help")
        return usage();

    if (args[0] == "diff")
        return args.size() == 3 ? cmdDiff(args[1], args[2]) : usage();
    if (args[0] == "profile") {
        std::string top = "20";
        takeOption(args, "top", top);
        // Only a positive decimal count: strtoul alone reads "abc"
        // as 0 and wraps "-1" round to every row.
        const bool digits =
            !top.empty() &&
            top.find_first_not_of("0123456789") == std::string::npos;
        const std::size_t top_n =
            digits ? std::strtoul(top.c_str(), nullptr, 10) : 0;
        if (args.size() < 2 || args.size() > 3 || top_n == 0)
            return usage();
        return cmdProfile({args.begin() + 1, args.end()}, top_n);
    }
    if (args[0] == "check")
        return args.size() == 2 ? cmdCheck(args[1]) : usage();
    if (args[0] == "metrics")
        return args.size() == 2 ? cmdMetrics(args[1]) : usage();
    if (args[0] == "show")
        return args.size() == 2 ? cmdShow(args[1]) : usage();
    return args.size() == 1 ? cmdShow(args[0]) : usage();
}
