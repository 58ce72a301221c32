/**
 * @file
 * pgss_bench_history — the perf-history side of the observability
 * layer (DESIGN.md section 11). Distils run reports into small
 * committed bench snapshots (BENCH_pr<N>.json at the repo root) and
 * reads the trajectory back:
 *
 *   pgss_bench_history snapshot report.json BENCH_pr5.json
 *                                  distil the per-mode engine spans
 *                                  (profile.flat."engine.<mode>") into
 *                                  a pgss-bench-snapshot's
 *                                  perf.mode.<mode> calls/ops/seconds/
 *                                  mips (--label=pr5 overrides the
 *                                  label derived from the output
 *                                  filename)
 *   pgss_bench_history check report.json --baseline=BENCH_pr4.json
 *                                  [--tolerance=0.25]
 *                                  regression gate: snapshot the
 *                                  report in memory, exit 1 when any
 *                                  perf.*.mips fell more than the
 *                                  tolerance below the baseline;
 *                                  exit 3 when the baseline itself is
 *                                  missing, malformed, or lacks a
 *                                  perf mode the report carries (a
 *                                  setup problem, not a perf
 *                                  regression — CI can tell the two
 *                                  apart)
 *   pgss_bench_history list BENCH_*.json
 *                                  the trajectory: one row per
 *                                  snapshot, one column per mode MIPS
 *
 * snapshot and check read only the report's "profile" section, so the
 * run must have been made with --profile (or --profile-out=). Both
 * refuse (exit 1) a report without one, with a truncated one (a
 * wrapped span ring undercounts every row), or with no engine.<mode>
 * spans: the gate never passes on numbers it did not get.
 *
 * CI appends one snapshot per PR from the perf-smoke fig13 run; the
 * committed baseline the gate compares against is refreshed manually
 * when a deliberate perf change lands.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/analyze.hh"
#include "util/atomic_file.hh"
#include "util/table.hh"

namespace
{

using pgss::obs::CheckResult;
using pgss::obs::JsonValue;
using pgss::obs::LoadedReport;

int
usage()
{
    std::cerr
        << "usage: pgss_bench_history snapshot <report.json> "
           "<out.json> [--label=<s>]\n"
        << "       pgss_bench_history check <report.json> "
           "--baseline=<bench.json> [--tolerance=<frac>]\n"
        << "       pgss_bench_history list <bench.json>...\n";
    return 2;
}

bool
load(const std::string &path, LoadedReport &out)
{
    std::string err;
    if (pgss::obs::loadReport(path, out, &err))
        return true;
    std::cerr << "pgss_bench_history: " << err << "\n";
    return false;
}

/** True for a "perf.<mode>.mips" path (what the gate compares). */
bool
isMipsPath(const std::string &path)
{
    return path.rfind("perf.", 0) == 0 && path.size() > 10 &&
           path.compare(path.size() - 5, 5, ".mips") == 0;
}

/**
 * Load the run report at @p path and distil it into @p snap (and its
 * JSON text @p doc) with @p label: what snapshot writes and what
 * check gates. A report whose per-mode numbers cannot be trusted is
 * refused with a message naming --profile: no "profile" section, a
 * truncated one, or one without engine.<mode> spans.
 */
bool
snapshotReport(const std::string &path, const std::string &label,
               std::string &doc, LoadedReport &snap)
{
    LoadedReport report;
    if (!load(path, report))
        return false;
    doc = pgss::obs::benchSnapshotFromReport(report, label);
    std::string err;
    if (!pgss::obs::loadReportFromString(doc, snap, &err)) {
        std::cerr << "pgss_bench_history: " << err << "\n";
        return false;
    }
    bool any_mips = false;
    for (const auto &[p, v] : snap.values)
        any_mips = any_mips || isMipsPath(p);
    const JsonValue *profile = report.doc.get("profile");
    const JsonValue *truncated =
        profile ? profile->get("truncated") : nullptr;
    const char *problem =
        !profile ? "has no profile section"
        : truncated && truncated->boolean
            ? "has a truncated profile (its span ring wrapped, so "
              "every per-mode total undercounts)"
        : !any_mips ? "has no engine.<mode> spans in its profile"
                    : nullptr;
    if (!problem)
        return true;
    std::cerr << "pgss_bench_history: '" << path << "' " << problem
              << "; per-mode MIPS come from the profile's engine "
                 "spans: rerun with --profile (or --profile-out=) on "
                 "a run short enough not to wrap the span ring\n";
    return false;
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

/** "results/BENCH_pr5.json" -> "pr5" (filename minus prefix/suffix). */
std::string
labelFromPath(const std::string &path)
{
    std::string name = path;
    const std::size_t slash = name.find_last_of("/\\");
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    if (name.rfind("BENCH_", 0) == 0)
        name = name.substr(6);
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos)
        name = name.substr(0, dot);
    return name;
}

int
cmdSnapshot(const std::string &report_path,
            const std::string &out_path, std::string label)
{
    if (label.empty())
        label = labelFromPath(out_path);
    std::string doc;
    LoadedReport snap;
    if (!snapshotReport(report_path, label, doc, snap))
        return 1;
    std::string err;
    if (!pgss::util::atomicWriteFile(out_path, doc.data(), doc.size(),
                                     nullptr, &err)) {
        std::cerr << "pgss_bench_history: cannot write '" << out_path
                  << "' (" << err << ")\n";
        return 1;
    }
    std::cout << "wrote " << out_path << " (label " << label
              << ")\n";
    return 0;
}

// check's exit codes: 0 ok, 1 regression, 2 usage, 3 bad baseline.
constexpr int kExitBadBaseline = 3;

/**
 * Load the gate's baseline snapshot, separating "the baseline is
 * missing/broken" (setup problem, exit 3) from "the run regressed"
 * (exit 1). A snapshot with no perf.<mode>.mips values would make the
 * gate pass vacuously, so it counts as malformed too.
 */
bool
loadBaseline(const std::string &path, LoadedReport &out)
{
    std::string err;
    bool ok = pgss::obs::loadReport(path, out, &err);
    if (ok) {
        bool any_mips = false;
        for (const auto &[p, v] : out.values)
            any_mips = any_mips || isMipsPath(p);
        if (!any_mips) {
            ok = false;
            err = "'" + path + "' has no perf.<mode>.mips values";
        }
    }
    if (!ok)
        std::cerr << "pgss_bench_history: bad baseline: " << err
                  << "; regenerate it with: pgss_bench_history "
                     "snapshot <report.json> "
                  << path << "\n";
    return ok;
}

/**
 * Every perf.<mode>.mips the report's snapshot carries must exist in
 * the baseline, or the gate would silently skip that mode — exactly
 * the failure mode a new backend introduces (its key is absent from
 * every older snapshot). Missing modes are a baseline-coverage
 * problem (exit 3), not a regression.
 */
bool
baselineCoversReportModes(const LoadedReport &snap,
                          const LoadedReport &baseline,
                          const std::string &baseline_path)
{
    bool covered = true;
    for (const auto &[path, v] : snap.values) {
        if (!isMipsPath(path))
            continue;
        if (!std::isfinite(v) || v <= 0.0)
            continue; // untimed mode in this run: nothing to gate
        if (std::isnan(baseline.value(path))) {
            std::cerr << "pgss_bench_history: baseline "
                      << baseline_path << " has no " << path
                      << " (mode missing from baseline); refresh it "
                         "with: pgss_bench_history snapshot "
                         "<report.json> "
                      << baseline_path << "\n";
            covered = false;
        }
    }
    return covered;
}

int
cmdCheck(const std::string &report_path,
         const std::string &baseline_path, double tolerance)
{
    // Gate the snapshot the report would commit, so the run and the
    // baseline are compared on the same perf.<mode>.mips paths.
    std::string doc;
    LoadedReport snap, baseline;
    if (!snapshotReport(report_path, "check", doc, snap))
        return 1;
    if (!loadBaseline(baseline_path, baseline))
        return kExitBadBaseline;
    if (!baselineCoversReportModes(snap, baseline, baseline_path))
        return kExitBadBaseline;
    const CheckResult res = pgss::obs::checkAgainstBaseline(
        snap, baseline, tolerance);
    for (const std::string &v : res.violations)
        std::cout << "VIOLATION baseline: " << v << "\n";
    for (const std::string &w : res.warnings)
        std::cout << "warning baseline: " << w << "\n";
    if (!res.ok()) {
        std::cout << "FAIL: " << res.violations.size()
                  << " regression(s) vs " << baseline_path << "\n";
        return 1;
    }
    std::cout << "OK vs " << baseline_path << " (tolerance "
              << tolerance * 100.0 << "%, " << res.warnings.size()
              << " warning(s))\n";
    return 0;
}

int
cmdList(const std::vector<std::string> &paths)
{
    std::vector<LoadedReport> snaps(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i)
        if (!load(paths[i], snaps[i]))
            return 1;

    // Columns: every perf.<mode>.mips path seen anywhere, in first-
    // seen (report/mode) order so the table is stable across runs.
    std::vector<std::string> modes;
    for (const LoadedReport &s : snaps)
        for (const auto &[path, v] : s.values) {
            if (!isMipsPath(path))
                continue;
            const std::string mode =
                path.substr(5, path.size() - 10);
            bool seen = false;
            for (const std::string &m : modes)
                seen = seen || m == mode;
            if (!seen)
                modes.push_back(mode);
        }

    pgss::util::Table t("bench trajectory (host MIPS per mode)");
    std::vector<std::string> header = {"snapshot"};
    header.insert(header.end(), modes.begin(), modes.end());
    t.setHeader(header);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const JsonValue *label = snaps[i].doc.get("label");
        std::vector<std::string> row = {
            label && label->isString() ? label->string
                                       : labelFromPath(paths[i])};
        for (const std::string &mode : modes) {
            const double v =
                snaps[i].value("perf." + mode + ".mips");
            char buf[40];
            if (std::isnan(v))
                row.push_back("");
            else {
                std::snprintf(buf, sizeof(buf), "%.1f", v);
                row.push_back(buf);
            }
        }
        t.addRow(row);
    }
    t.print(std::cout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "-h" || args[0] == "--help")
        return usage();

    if (args[0] == "snapshot") {
        std::string label;
        takeOption(args, "label", label);
        return args.size() == 3 ? cmdSnapshot(args[1], args[2], label)
                                : usage();
    }
    if (args[0] == "check") {
        std::string baseline, tolerance = "0.25";
        takeOption(args, "baseline", baseline);
        takeOption(args, "tolerance", tolerance);
        if (args.size() != 2 || baseline.empty())
            return usage();
        return cmdCheck(args[1], baseline,
                        std::strtod(tolerance.c_str(), nullptr));
    }
    if (args[0] == "list")
        return args.size() >= 2
                   ? cmdList({args.begin() + 1, args.end()})
                   : usage();
    return usage();
}
