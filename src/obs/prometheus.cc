#include "obs/prometheus.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "obs/analyze.hh"

namespace pgss::obs
{

namespace
{

/** %.17g renders integers exactly and doubles round-trip. */
std::string
fmtValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
validMetricName(const std::string &s)
{
    if (s.empty())
        return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    auto tail = [&head](char c) {
        return head(c) || std::isdigit(static_cast<unsigned char>(c));
    };
    if (!head(s[0]))
        return false;
    return std::all_of(s.begin() + 1, s.end(), tail);
}

bool
validLabelName(const std::string &s)
{
    if (s.empty())
        return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    if (!head(s[0]))
        return false;
    return std::all_of(s.begin() + 1, s.end(), [&head](char c) {
        return head(c) || std::isdigit(static_cast<unsigned char>(c));
    });
}

} // anonymous namespace

const char *
metricTypeName(MetricType t)
{
    switch (t) {
      case MetricType::Counter:
        return "counter";
      case MetricType::Gauge:
        return "gauge";
      case MetricType::Untyped:
        return "untyped";
    }
    return "untyped";
}

std::string
promMetricName(const std::string &dotted_path)
{
    std::string out = "pgss_";
    for (char c : dotted_path) {
        const bool ok =
            std::isalnum(static_cast<unsigned char>(c)) || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
promEscapeLabel(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

std::string
promEscapeHelp(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

void
renderPromText(std::ostream &os,
               const std::vector<MetricFamily> &families)
{
    for (const MetricFamily &f : families) {
        if (!f.help.empty())
            os << "# HELP " << f.name << " "
               << promEscapeHelp(f.help) << "\n";
        os << "# TYPE " << f.name << " " << metricTypeName(f.type)
           << "\n";
        for (const MetricSample &s : f.samples) {
            os << f.name;
            if (!s.labels.empty()) {
                auto sorted = s.labels;
                std::sort(sorted.begin(), sorted.end(),
                          [](const auto &a, const auto &b) {
                              return a.first < b.first;
                          });
                os << "{";
                bool first = true;
                for (const auto &[k, v] : sorted) {
                    if (!first)
                        os << ",";
                    first = false;
                    os << k << "=\"" << promEscapeLabel(v) << "\"";
                }
                os << "}";
            }
            os << " " << fmtValue(s.value) << "\n";
        }
    }
}

std::vector<MetricFamily>
familiesFromValues(
    const std::vector<std::pair<std::string, double>> &values,
    const std::function<MetricType(const std::string &)> &typeOf)
{
    std::vector<MetricFamily> out;
    out.reserve(values.size());
    for (const auto &[path, v] : values) {
        // typeOf runs once per input value, in order, even for
        // dropped duplicates — callers may key types off call order.
        const MetricType type = typeOf(path);
        const std::string name = promMetricName(path);
        const bool dup =
            std::any_of(out.begin(), out.end(),
                        [&name](const MetricFamily &f) {
                            return f.name == name;
                        });
        if (dup)
            continue;
        MetricFamily f;
        f.name = name;
        f.help = path;
        f.type = type;
        f.samples.push_back({{}, v});
        out.push_back(std::move(f));
    }
    return out;
}

MetricType
defaultMetricType(const std::string &path)
{
    auto endsWith = [&path](const char *suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    // Only version-1 reports carry "perf" (schema 2 dropped it).
    if (path.rfind("perf.", 0) == 0 &&
        (endsWith(".calls") || endsWith(".ops") ||
         endsWith(".seconds")))
        return MetricType::Counter;
    return MetricType::Gauge;
}

std::vector<MetricFamily>
familiesFromReport(const LoadedReport &report)
{
    // "stat_kinds" (written by reports since the telemetry layer)
    // records each stats path's registry kind; older reports fall
    // back to the fixed rules.
    const JsonValue *kinds = report.doc.get("stat_kinds");
    auto typeOf = [kinds](const std::string &path) {
        if (kinds && kinds->isObject()) {
            if (const JsonValue *k = kinds->get(path))
                if (k->isString())
                    return k->string == "counter"
                               ? MetricType::Counter
                               : MetricType::Gauge;
        }
        return defaultMetricType(path);
    };
    return familiesFromValues(report.values, typeOf);
}

double
ParsedFamilies::value(const std::string &name) const
{
    for (const ParsedMetric &m : samples)
        if (m.name == name)
            return m.value;
    return std::nan("");
}

bool
ParsedFamilies::has(const std::string &name) const
{
    return std::any_of(samples.begin(), samples.end(),
                       [&name](const ParsedMetric &m) {
                           return m.name == name;
                       });
}

namespace
{

bool
fail(std::string *error, std::size_t line_no, const std::string &msg)
{
    if (error)
        *error = "line " + std::to_string(line_no) + ": " + msg;
    return false;
}

/** Parse `{k="v",...}` starting at @p i (on '{'); advances @p i past
 * the closing brace. */
bool
parseLabels(const std::string &line, std::size_t &i,
            ParsedMetric &m, std::string &msg)
{
    ++i; // '{'
    for (;;) {
        while (i < line.size() && line[i] == ' ')
            ++i;
        if (i < line.size() && line[i] == '}') {
            ++i;
            return true;
        }
        std::size_t start = i;
        while (i < line.size() && line[i] != '=')
            ++i;
        if (i >= line.size()) {
            msg = "unterminated label";
            return false;
        }
        const std::string lname = line.substr(start, i - start);
        if (!validLabelName(lname)) {
            msg = "bad label name '" + lname + "'";
            return false;
        }
        ++i; // '='
        if (i >= line.size() || line[i] != '"') {
            msg = "label value not quoted";
            return false;
        }
        ++i;
        std::string value;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\') {
                if (i + 1 >= line.size()) {
                    msg = "dangling escape";
                    return false;
                }
                const char e = line[i + 1];
                if (e == 'n')
                    value.push_back('\n');
                else if (e == '\\' || e == '"')
                    value.push_back(e);
                else {
                    msg = "bad escape '\\" + std::string(1, e) + "'";
                    return false;
                }
                i += 2;
            } else {
                value.push_back(line[i++]);
            }
        }
        if (i >= line.size()) {
            msg = "unterminated label value";
            return false;
        }
        ++i; // '"'
        m.labels.emplace_back(lname, value);
        if (i < line.size() && line[i] == ',')
            ++i;
        else if (i < line.size() && line[i] != '}') {
            msg = "expected ',' or '}' after label";
            return false;
        }
    }
}

} // anonymous namespace

bool
parsePrometheusText(const std::string &text, ParsedFamilies *out,
                    std::string *error)
{
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        if (line.empty())
            continue;

        if (line[0] == '#') {
            // "# TYPE name type" / "# HELP name text" / plain comment
            if (line.rfind("# TYPE ", 0) == 0) {
                const std::string rest = line.substr(7);
                const std::size_t sp = rest.find(' ');
                if (sp == std::string::npos)
                    return fail(error, line_no, "TYPE missing type");
                const std::string name = rest.substr(0, sp);
                const std::string type = rest.substr(sp + 1);
                if (!validMetricName(name))
                    return fail(error, line_no,
                                "TYPE bad metric name '" + name + "'");
                if (type != "counter" && type != "gauge" &&
                    type != "untyped" && type != "histogram" &&
                    type != "summary")
                    return fail(error, line_no,
                                "unknown type '" + type + "'");
                for (const auto &[n, t] : out->types)
                    if (n == name)
                        return fail(error, line_no,
                                    "duplicate TYPE for '" + name +
                                        "'");
                // The spec requires TYPE before the family's samples.
                if (out->has(name))
                    return fail(error, line_no,
                                "TYPE for '" + name +
                                    "' after its samples");
                out->types.emplace_back(name, type);
            }
            continue;
        }

        ParsedMetric m;
        std::size_t i = 0;
        while (i < line.size() && line[i] != '{' && line[i] != ' ')
            ++i;
        m.name = line.substr(0, i);
        if (!validMetricName(m.name))
            return fail(error, line_no,
                        "bad metric name '" + m.name + "'");
        if (i < line.size() && line[i] == '{') {
            std::string msg;
            if (!parseLabels(line, i, m, msg))
                return fail(error, line_no, msg);
        }
        while (i < line.size() && line[i] == ' ')
            ++i;
        if (i >= line.size())
            return fail(error, line_no, "missing value");
        const std::string value_str = line.substr(i);
        char *end = nullptr;
        if (value_str == "NaN") {
            m.value = std::nan("");
        } else if (value_str == "+Inf") {
            m.value = INFINITY;
        } else if (value_str == "-Inf") {
            m.value = -INFINITY;
        } else {
            m.value = std::strtod(value_str.c_str(), &end);
            // A trailing integer token is an (ignored) timestamp.
            while (end && *end == ' ')
                ++end;
            if (end && *end != '\0') {
                char *ts_end = nullptr;
                std::strtoll(end, &ts_end, 10);
                if (ts_end == end || *ts_end != '\0')
                    return fail(error, line_no,
                                "trailing junk '" +
                                    std::string(end) + "'");
            }
        }
        out->samples.push_back(std::move(m));
    }
    return true;
}

} // namespace pgss::obs
