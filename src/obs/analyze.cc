#include "obs/analyze.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/table.hh"

namespace pgss::obs
{

namespace
{

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/** Map a phase id to a single timeline glyph (wraps after 62). */
char
phaseGlyph(std::uint64_t phase)
{
    static const char glyphs[] =
        "0123456789abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    return glyphs[phase % (sizeof(glyphs) - 1)];
}

std::string
fmtNum(double v)
{
    if (std::isnan(v))
        return "n/a";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
flattenNumeric(const JsonValue &v, const std::string &prefix,
               std::vector<std::pair<std::string, double>> &out)
{
    for (const auto &[key, member] : v.object) {
        const std::string path =
            prefix.empty() ? key : prefix + "." + key;
        switch (member.kind) {
          case JsonValue::Kind::Number:
            out.emplace_back(path, member.number);
            break;
          case JsonValue::Kind::Null:
            // The writer emits non-finite numbers as null.
            out.emplace_back(path, kNan);
            break;
          case JsonValue::Kind::Object:
            flattenNumeric(member, path, out);
            break;
          default:
            break; // strings/bools/arrays are not comparable values
        }
    }
}

const JsonValue *
timelinesSection(const LoadedReport &report)
{
    const JsonValue *tl = report.doc.get("timelines");
    return tl && tl->isObject() ? tl : nullptr;
}

const JsonValue *
profileSection(const LoadedReport &report)
{
    const JsonValue *p = report.doc.get("profile");
    return p && p->isObject() ? p : nullptr;
}

double
numberAt(const JsonValue &obj, const char *key, double fallback = 0.0)
{
    const JsonValue *v = obj.get(key);
    return v && v->isNumber() ? v->number : fallback;
}

std::string
fmtPercentOfWall(double seconds, double wall)
{
    if (wall <= 0.0)
        return "n/a";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.1f%%", seconds / wall * 100.0);
    return buf;
}

/** The "op" array of a series object as uint64s (empty when absent). */
std::vector<std::uint64_t>
opAxis(const JsonValue &obj)
{
    std::vector<std::uint64_t> out;
    if (const JsonValue *op = obj.get("op"))
        for (const JsonValue &v : op->array)
            out.push_back(v.asUint());
    return out;
}

void
renderPhaseStrip(std::ostream &os, const JsonValue &timeline)
{
    const std::vector<std::uint64_t> ops = opAxis(timeline);
    const JsonValue *phase = timeline.get("phase");
    if (ops.empty() || !phase || phase->array.size() != ops.size()) {
        os << "  (no phase timeline)\n";
        return;
    }
    constexpr std::size_t kWidth = 64;
    const std::uint64_t lo = ops.front();
    const std::uint64_t hi = std::max(ops.back(), lo + 1);
    std::string strip(kWidth, ' ');
    // Paint in order so each column shows the latest phase that
    // reached it; adjacent periods in the same phase form runs.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        std::size_t col = static_cast<std::size_t>(
            static_cast<double>(ops[i] - lo) /
            static_cast<double>(hi - lo) * (kWidth - 1));
        strip[col] = phaseGlyph(phase->array[i].asUint());
    }
    // Fill gaps left of each painted column with its glyph so sparse
    // timelines still read as contiguous phase intervals.
    char run = strip[0] == ' ' ? '?' : strip[0];
    for (std::size_t c = 0; c < kWidth; ++c) {
        if (strip[c] == ' ')
            strip[c] = run;
        else
            run = strip[c];
    }
    const JsonValue *periods = timeline.get("periods");
    const JsonValue *stride = timeline.get("stride_periods");
    os << "  phase |" << strip << "|\n";
    os << "        op " << lo << " .. " << hi << "  ("
       << (periods ? periods->asUint() : 0) << " periods, stride "
       << (stride ? stride->asUint() : 0) << ")\n";
}

void
renderConvergence(std::ostream &os, const std::string &phase_id,
                  const JsonValue &curve)
{
    const std::vector<std::uint64_t> ops = opAxis(curve);
    const JsonValue *samples = curve.get("samples");
    const JsonValue *mean = curve.get("mean");
    const JsonValue *ci = curve.get("ci_rel");
    const JsonValue *closed = curve.get("closed");
    if (ops.empty() || !samples || !mean || !ci || !closed)
        return;

    const std::size_t n = ops.size();
    double ci_max = 0.0;
    for (const JsonValue &v : ci->array) {
        const double r = v.asNumber();
        if (std::isfinite(r))
            ci_max = std::max(ci_max, r);
    }

    // Show at most 16 evenly spaced points (always the last one): the
    // series is already downsampled, this is purely display width.
    constexpr std::size_t kShown = 16;
    const std::size_t step = n <= kShown ? 1 : (n + kShown - 1) / kShown;

    util::Table t("  phase " + phase_id + " CI convergence");
    t.setHeader({"op", "n", "mean", "ci_rel", "", "state"});
    for (std::size_t i = 0; i < n; i += step) {
        if (i + step >= n && i + 1 != n)
            i = n - 1; // snap the final row to the last point
        const double rel = ci->array[i].asNumber();
        std::string bar;
        if (std::isfinite(rel) && ci_max > 0.0)
            bar.assign(static_cast<std::size_t>(
                           rel / ci_max * 20.0 + 0.5),
                       '#');
        t.addRow({std::to_string(ops[i]),
                  std::to_string(samples->array[i].asUint()),
                  fmtNum(mean->array[i].asNumber()),
                  fmtNum(ci->array[i].asNumber()), bar,
                  closed->array[i].asUint() ? "closed" : "open"});
    }
    t.print(os);
}

void
checkAligned(const JsonValue &obj, const char *what,
             std::size_t expect, const std::string &ctx,
             CheckResult &res)
{
    const JsonValue *arr = obj.get(what);
    if (!arr || !arr->isArray()) {
        res.violations.push_back(ctx + ": missing array '" +
                                 what + "'");
        return;
    }
    if (arr->array.size() != expect)
        res.violations.push_back(
            ctx + ": '" + std::string(what) + "' has " +
            std::to_string(arr->array.size()) + " points, op axis has " +
            std::to_string(expect));
}

void
checkMonotonic(const std::vector<std::uint64_t> &ops,
               const std::string &ctx, CheckResult &res)
{
    for (std::size_t i = 1; i < ops.size(); ++i) {
        if (ops[i] < ops[i - 1]) {
            res.violations.push_back(
                ctx + ": op axis not monotonic at index " +
                std::to_string(i) + " (" + std::to_string(ops[i - 1]) +
                " -> " + std::to_string(ops[i]) + ")");
            return;
        }
    }
}

} // anonymous namespace

double
LoadedReport::value(const std::string &want) const
{
    for (const auto &[path, v] : values)
        if (path == want)
            return v;
    return kNan;
}

bool
loadReportFromString(const std::string &text, LoadedReport &out,
                     std::string *error)
{
    if (!parseJson(text, out.doc, error))
        return false;
    if (!out.doc.isObject()) {
        if (error)
            *error = "report document is not a JSON object";
        return false;
    }
    if (const JsonValue *program = out.doc.get("program"))
        out.program = program->string;
    if (const JsonValue *partial = out.doc.get("partial"))
        out.partial = partial->isBool() && partial->boolean;
    out.values.clear();
    // "perf" exists only in version-1 reports and BENCH_pr4/7/9.json.
    for (const char *section : {"meta", "perf", "stats", "profile"})
        if (const JsonValue *v = out.doc.get(section))
            if (v->isObject())
                flattenNumeric(*v, section, out.values);
    return true;
}

bool
loadReport(const std::string &path, LoadedReport &out,
           std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out.path = path;
    return loadReportFromString(text.str(), out, error);
}

void
renderReport(std::ostream &os, const LoadedReport &report)
{
    os << "run report: " << report.program;
    if (!report.path.empty())
        os << "  (" << report.path << ")";
    os << "\n";
    if (report.partial)
        os << "  ** PARTIAL: the run exited abnormally; values below "
              "cover only the completed portion **\n";

    // Stats flatten to dotted paths already; one table covers
    // counters, scalars, formulas, and vector elements.
    util::Table t("stats");
    t.setHeader({"path", "value"});
    for (const auto &[path, v] : report.values)
        if (path.rfind("stats.", 0) == 0)
            t.addRow({path.substr(6), fmtNum(v)});
    if (t.rowCount()) {
        t.print(os);
        os << "\n";
    }

    if (profileSection(report)) {
        renderProfile(os, report);
        os << "\n";
    }

    renderTimelines(os, report);
}

void
renderTimelines(std::ostream &os, const LoadedReport &report)
{
    const JsonValue *tl = timelinesSection(report);
    if (!tl) {
        os << "(no timelines section; run with --timelines)\n";
        return;
    }

    const JsonValue *tlv = tl->get("schema_version");
    os << "timelines (schema v" << (tlv ? tlv->asUint() : 0) << ")\n";

    const JsonValue *runs = tl->get("runs");
    if (!runs || runs->array.empty()) {
        os << "  (no sampling runs recorded)\n";
        return;
    }
    for (const JsonValue &run : runs->array) {
        const JsonValue *label = run.get("label");
        os << "\nrun '" << (label ? label->string : "?") << "'\n";
        if (const JsonValue *timeline = run.get("phase_timeline"))
            renderPhaseStrip(os, *timeline);
        if (const JsonValue *conv = run.get("convergence"))
            for (const auto &[phase_id, curve] : conv->object)
                renderConvergence(os, phase_id, curve);
    }
    if (const JsonValue *dropped = tl->get("dropped_runs"))
        if (dropped->asUint() > 0)
            os << "\n(" << dropped->asUint()
               << " further runs dropped: max_runs reached)\n";
}

namespace
{

/** One parsed "profile.flat" row. */
struct FlatSpan
{
    std::string name;
    std::string cat;
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double mips = 0.0;
};

std::vector<FlatSpan>
flatSpans(const JsonValue &profile)
{
    std::vector<FlatSpan> out;
    const JsonValue *flat = profile.get("flat");
    if (!flat || !flat->isObject())
        return out;
    for (const auto &[name, f] : flat->object) {
        FlatSpan s;
        s.name = name;
        if (const JsonValue *cat = f.get("cat"))
            s.cat = cat->string;
        s.calls = static_cast<std::uint64_t>(numberAt(f, "calls"));
        s.total_s = numberAt(f, "total_seconds");
        s.self_s = numberAt(f, "self_seconds");
        s.mips = numberAt(f, "mips");
        out.push_back(std::move(s));
    }
    return out;
}

/** The call tree as parent -> children, children ordered by total. */
void
renderTreeNode(util::Table &t, const JsonValue &tree,
               const std::string &name, std::size_t depth,
               std::vector<std::string> &path)
{
    // Span names recur only through real recursion; cap the render so
    // a self-edge cannot loop the printer.
    if (depth > 8)
        return;
    for (const std::string &seen : path)
        if (seen == name)
            return;
    path.push_back(name);
    std::vector<const JsonValue *> children;
    for (const JsonValue &edge : tree.array) {
        const JsonValue *parent = edge.get("parent");
        if (parent && parent->string == name)
            children.push_back(&edge);
    }
    std::sort(children.begin(), children.end(),
              [](const JsonValue *a, const JsonValue *b) {
                  return numberAt(*a, "total_seconds") >
                         numberAt(*b, "total_seconds");
              });
    for (const JsonValue *edge : children) {
        const JsonValue *child = edge->get("name");
        if (!child)
            continue;
        t.addRow({std::string(2 * (depth + 1), ' ') + child->string,
                  util::Table::fmtCount(static_cast<std::uint64_t>(
                      numberAt(*edge, "calls"))),
                  fmtNum(numberAt(*edge, "total_seconds")),
                  fmtNum(numberAt(*edge, "self_seconds"))});
        renderTreeNode(t, tree, child->string, depth + 1, path);
    }
    path.pop_back();
}

} // anonymous namespace

void
renderProfile(std::ostream &os, const LoadedReport &report,
              std::size_t top_n)
{
    const JsonValue *p = profileSection(report);
    if (!p) {
        os << "(no profile section; run with --profile)\n";
        return;
    }

    const double wall = numberAt(*p, "wall_seconds");
    const double overhead_s = numberAt(*p, "overhead_seconds");
    const std::uint64_t recorded =
        static_cast<std::uint64_t>(numberAt(*p, "spans_recorded"));
    const std::uint64_t dropped =
        static_cast<std::uint64_t>(numberAt(*p, "spans_dropped"));
    os << "profile: " << util::Table::fmtCount(recorded)
       << " spans, wall " << fmtNum(wall) << " s, overhead "
       << fmtNum(numberAt(*p, "overhead_ns_per_span"))
       << " ns/span (" << fmtPercentOfWall(overhead_s, wall)
       << " of wall)\n";
    if (dropped > 0)
        os << "  ** TRUNCATED: " << util::Table::fmtCount(dropped)
           << " spans dropped by ring wrap; totals undercount **\n";

    if (const JsonValue *threads = p->get("threads")) {
        os << "  threads:";
        for (const JsonValue &th : threads->array) {
            const JsonValue *name = th.get("name");
            os << " " << (name ? name->string : "?") << "("
               << util::Table::fmtCount(static_cast<std::uint64_t>(
                      numberAt(th, "recorded")))
               << ")";
        }
        os << "\n";
    }

    if (const JsonValue *cats = p->get("categories")) {
        util::Table t("by category");
        t.setHeader({"category", "self s", "of wall", "ops"});
        for (const auto &[cat, c] : cats->object) {
            const double self_s = numberAt(c, "self_seconds");
            if (self_s == 0.0 && numberAt(c, "ops") == 0.0)
                continue;
            t.addRow({cat, fmtNum(self_s),
                      fmtPercentOfWall(self_s, wall),
                      util::Table::fmtCount(static_cast<std::uint64_t>(
                          numberAt(c, "ops")))});
        }
        if (t.rowCount())
            t.print(os);
    }

    std::vector<FlatSpan> spans = flatSpans(*p);
    std::sort(spans.begin(), spans.end(),
              [](const FlatSpan &a, const FlatSpan &b) {
                  return a.self_s > b.self_s;
              });
    util::Table t("top spans by self time");
    t.setHeader({"span", "cat", "calls", "total s", "self s",
                 "of wall", "mips"});
    for (std::size_t i = 0; i < spans.size() && i < top_n; ++i) {
        const FlatSpan &s = spans[i];
        t.addRow({s.name, s.cat, util::Table::fmtCount(s.calls),
                  fmtNum(s.total_s), fmtNum(s.self_s),
                  fmtPercentOfWall(s.self_s, wall),
                  s.mips > 0.0 ? fmtNum(s.mips) : ""});
    }
    if (t.rowCount())
        t.print(os);
    if (spans.size() > top_n)
        os << "  (" << spans.size() - top_n
           << " further spans; --top=N to widen)\n";

    const JsonValue *tree = p->get("tree");
    if (tree && tree->isArray() && !tree->array.empty()) {
        util::Table tt("call tree");
        tt.setHeader({"span", "calls", "total s", "self s"});
        std::vector<std::string> path;
        renderTreeNode(tt, *tree, "", 0, path);
        tt.print(os);
    }
}

void
renderProfileDiff(std::ostream &os, const LoadedReport &a,
                  const LoadedReport &b)
{
    os << "A: " << a.program << "  (" << a.path << ")\n";
    os << "B: " << b.program << "  (" << b.path << ")\n\n";

    const JsonValue *pa = profileSection(a);
    const JsonValue *pb = profileSection(b);
    if (!pa || !pb) {
        os << "(both reports need a profile section; run with "
              "--profile)\n";
        return;
    }

    struct Pair
    {
        const FlatSpan *a = nullptr;
        const FlatSpan *b = nullptr;
    };
    const std::vector<FlatSpan> sa = flatSpans(*pa);
    const std::vector<FlatSpan> sb = flatSpans(*pb);
    std::vector<std::pair<std::string, Pair>> merged;
    auto slot = [&merged](const std::string &name) -> Pair & {
        for (auto &[n, pair] : merged)
            if (n == name)
                return pair;
        merged.emplace_back(name, Pair{});
        return merged.back().second;
    };
    for (const FlatSpan &s : sa)
        slot(s.name).a = &s;
    for (const FlatSpan &s : sb)
        slot(s.name).b = &s;
    std::sort(merged.begin(), merged.end(),
              [](const auto &x, const auto &y) {
                  auto key = [](const Pair &p) {
                      return std::max(p.a ? p.a->self_s : 0.0,
                                      p.b ? p.b->self_s : 0.0);
                  };
                  return key(x.second) > key(y.second);
              });

    util::Table t("span self time, A vs B");
    t.setHeader({"span", "A self s", "B self s", "delta", "A calls",
                 "B calls"});
    for (const auto &[name, pair] : merged) {
        std::string delta = "n/a";
        if (pair.a && pair.b) {
            const DiffRow row{name, pair.a->self_s, pair.b->self_s};
            const double pct = row.percent();
            if (!std::isnan(pct)) {
                char buf[40];
                std::snprintf(buf, sizeof(buf), "%+.2f%%", pct);
                delta = buf;
            }
        } else {
            delta = pair.a ? "only A" : "only B";
        }
        t.addRow({name, pair.a ? fmtNum(pair.a->self_s) : "",
                  pair.b ? fmtNum(pair.b->self_s) : "", delta,
                  pair.a ? util::Table::fmtCount(pair.a->calls) : "",
                  pair.b ? util::Table::fmtCount(pair.b->calls) : ""});
    }
    t.print(os);
}

double
DiffRow::percent() const
{
    if (a == b)
        return 0.0;
    if (a == 0.0)
        return kNan;
    return (b - a) / std::abs(a) * 100.0;
}

std::vector<DiffRow>
diffReports(const LoadedReport &a, const LoadedReport &b)
{
    std::vector<DiffRow> out;
    for (const auto &[path, av] : a.values) {
        bool found = false;
        double bv = 0.0;
        for (const auto &[bpath, v] : b.values)
            if (bpath == path) {
                found = true;
                bv = v;
                break;
            }
        if (found)
            out.push_back({path, av, bv});
    }
    return out;
}

void
renderDiff(std::ostream &os, const LoadedReport &a,
           const LoadedReport &b)
{
    os << "A: " << a.program << "  (" << a.path << ")\n";
    os << "B: " << b.program << "  (" << b.path << ")\n\n";

    const std::vector<DiffRow> rows = diffReports(a, b);
    util::Table t("A vs B");
    t.setHeader({"path", "A", "B", "delta"});
    for (const DiffRow &row : rows) {
        std::string delta;
        const double pct = row.percent();
        if (std::isnan(pct)) {
            delta = "n/a";
        } else {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%+.2f%%", pct);
            delta = buf;
        }
        t.addRow({row.path, fmtNum(row.a), fmtNum(row.b), delta});
    }
    t.print(os);

    const std::size_t only_a = a.values.size() - rows.size();
    const std::size_t only_b = b.values.size() - rows.size();
    if (only_a || only_b)
        os << "\n(" << only_a << " paths only in A, " << only_b
           << " only in B)\n";
}

CheckResult
checkReport(const LoadedReport &report)
{
    CheckResult res;
    const JsonValue &doc = report.doc;

    const JsonValue *schema = doc.get("schema");
    if (!schema || schema->string != "pgss-run-report")
        res.violations.push_back("schema is not 'pgss-run-report'");
    const JsonValue *version = doc.get("schema_version");
    if (!version || version->asUint() < 1)
        res.violations.push_back("missing or zero schema_version");
    if (report.program.empty())
        res.violations.push_back("empty 'program' field");
    const JsonValue *stats = doc.get("stats");
    if (!stats || !stats->isObject())
        res.violations.push_back("missing 'stats' object");
    if (report.partial)
        res.warnings.push_back(
            "partial report: the run exited abnormally");
    for (const auto &[path, v] : report.values)
        if (std::isnan(v))
            res.warnings.push_back("non-finite value at " + path);

    if (const JsonValue *p = doc.get("profile")) {
        if (!p->isObject()) {
            res.violations.push_back("'profile' is not an object");
        } else {
            const JsonValue *pv = p->get("schema_version");
            if (!pv || pv->asUint() < 1)
                res.violations.push_back(
                    "profile: missing schema_version");
            // Self time is total minus children: a flat row where
            // self exceeds total means the stack accounting broke.
            if (const JsonValue *flat = p->get("flat"))
                for (const auto &[name, f] : flat->object)
                    if (numberAt(f, "self_seconds") >
                        numberAt(f, "total_seconds") + 1e-9)
                        res.violations.push_back(
                            "profile.flat." + name +
                            ": self_seconds exceeds total_seconds");
            std::uint64_t thread_recorded = 0;
            if (const JsonValue *threads = p->get("threads"))
                for (const JsonValue &th : threads->array)
                    thread_recorded += static_cast<std::uint64_t>(
                        numberAt(th, "recorded"));
            const std::uint64_t recorded =
                static_cast<std::uint64_t>(
                    numberAt(*p, "spans_recorded"));
            if (thread_recorded != recorded)
                res.violations.push_back(
                    "profile: per-thread recorded sum " +
                    std::to_string(thread_recorded) +
                    " != spans_recorded " + std::to_string(recorded));
            const std::uint64_t dropped = static_cast<std::uint64_t>(
                numberAt(*p, "spans_dropped"));
            if (dropped > 0)
                res.warnings.push_back(
                    "profile truncated: " + std::to_string(dropped) +
                    " spans dropped by ring wrap");
            const double wall = numberAt(*p, "wall_seconds");
            const double overhead =
                numberAt(*p, "overhead_seconds");
            if (wall > 0.0 && overhead > 0.02 * wall)
                res.warnings.push_back(
                    "profile: instrumentation overhead " +
                    fmtNum(overhead / wall * 100.0) +
                    "% of wall exceeds the 2% budget");
        }
    }

    const JsonValue *tl = doc.get("timelines");
    if (!tl)
        return res; // timelines are optional
    if (!tl->isObject()) {
        res.violations.push_back("'timelines' is not an object");
        return res;
    }
    const JsonValue *tlv = tl->get("schema_version");
    if (!tlv || tlv->asUint() < 1)
        res.violations.push_back("timelines: missing schema_version");

    if (const JsonValue *runs = tl->get("runs")) {
        for (std::size_t r = 0; r < runs->array.size(); ++r) {
            const JsonValue &run = runs->array[r];
            const std::string ctx =
                "timelines.runs[" + std::to_string(r) + "]";
            if (const JsonValue *pt = run.get("phase_timeline")) {
                const std::vector<std::uint64_t> ops = opAxis(*pt);
                checkMonotonic(ops, ctx + ".phase_timeline", res);
                checkAligned(*pt, "phase", ops.size(),
                             ctx + ".phase_timeline", res);
            }
            if (const JsonValue *th = run.get("threshold")) {
                const std::vector<std::uint64_t> ops = opAxis(*th);
                checkMonotonic(ops, ctx + ".threshold", res);
                checkAligned(*th, "radians", ops.size(),
                             ctx + ".threshold", res);
            }
            if (const JsonValue *conv = run.get("convergence")) {
                for (const auto &[phase_id, curve] : conv->object) {
                    const std::string cctx =
                        ctx + ".convergence." + phase_id;
                    const std::vector<std::uint64_t> ops =
                        opAxis(curve);
                    checkMonotonic(ops, cctx, res);
                    for (const char *arr :
                         {"samples", "mean", "ci_rel", "closed"})
                        checkAligned(curve, arr, ops.size(), cctx,
                                     res);
                    // Sample counts must be non-decreasing: a curve
                    // that loses samples indicates recorder misuse.
                    if (const JsonValue *samples =
                            curve.get("samples")) {
                        std::uint64_t prev = 0;
                        for (const JsonValue &v : samples->array) {
                            if (v.asUint() < prev) {
                                res.violations.push_back(
                                    cctx +
                                    ": sample count decreases");
                                break;
                            }
                            prev = v.asUint();
                        }
                    }
                }
            }
        }
    }
    return res;
}

} // namespace pgss::obs
