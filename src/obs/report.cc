#include "obs/report.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/spans.hh"
#include "obs/timeline.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/fi.hh"
#include "util/logging.hh"

namespace pgss::obs
{

namespace
{

// Both report artifacts (run report JSON, Perfetto trace) share the
// "report.*" fault sites.
util::FileSites report_sites("report");

struct ReportState
{
    std::string program = "unknown";
    std::string stats_json_path;
    std::string profile_out_path;
    bool partial = false; ///< report written by the abnormal-exit path
    std::vector<std::pair<std::string, std::string>> meta_str;
    std::vector<std::pair<std::string, double>> meta_num;
};

ReportState &
state()
{
    static ReportState s;
    return s;
}

/**
 * Set once finalize() has run (or the emergency writer fired), so the
 * exit paths never write the report twice.
 */
std::atomic<bool> g_finalized{false};

/** Value of "--<flag>=..." when @p arg matches, else nullptr. */
const char *
flagValue(const char *arg, const char *flag)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=')
        return arg + len + 1;
    return nullptr;
}

/**
 * Write one report artifact. Atomic replace: a reader (or a crash
 * mid-write) never sees a half-written file, and a previous complete
 * one survives a failed write.
 */
bool
writeArtifact(const std::string &path, const std::string &text)
{
    util::AtomicFileWriter out(path, &report_sites);
    out.write(text);
    std::string err;
    if (!out.commit(&err)) {
        ++util::fi::counter("report.write_failed");
        util::warn("report: cannot write '%s' (%s)", path.c_str(),
                   err.c_str());
        return false;
    }
    util::inform("report: wrote %s%s", path.c_str(),
                 state().partial ? " (partial)" : "");
    return true;
}

bool
writeReportFile()
{
    const std::string &path = state().stats_json_path;
    return path.empty() || writeArtifact(path, reportJsonString() + "\n");
}

bool
writeProfileTrace()
{
    const std::string &path = state().profile_out_path;
    if (path.empty())
        return true;
    const SpanProfiler *prof = spanProfiler();
    if (!prof) {
        util::warn("report: --profile-out set but no span profiler");
        return false;
    }
    std::ostringstream doc;
    prof->writeTraceEventJson(doc);
    return writeArtifact(path, doc.str());
}

/**
 * Best-effort flush on abnormal exit: write the report (marked
 * partial) and the Perfetto trace. Called from std::atexit and from
 * the SIGINT/SIGTERM handler; the handler path is technically not
 * async-signal-safe (it allocates and does stdio), which is the
 * accepted trade for getting diagnostics out of an interrupted run —
 * the alternative is losing them, and the process is about to die
 * anyway.
 */
void
emergencyFlush(const char *why)
{
    if (g_finalized.exchange(true))
        return;
    state().partial = true;
    setReportMeta("exit_reason", std::string(why));
    // The span rings drain too: the report's "profile" section and
    // the Perfetto trace are written from whatever each thread had
    // recorded (wrapped rings carry their truncation markers). The
    // reads are best-effort — workers may still be running — which
    // is the same trade the rest of this path accepts.
    writeReportFile();
    writeProfileTrace();
}

extern "C" void
obsAtexitFlush()
{
    emergencyFlush("atexit");
}

extern "C" void
obsSignalFlush(int sig)
{
    emergencyFlush(sig == SIGINT ? "sigint" : "sigterm");
    // Restore and re-raise so the exit status still reports the
    // signal to the parent (shell, ctest, CI).
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
installExitHandlers()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    // emergencyFlush() reads the timeline recorder and the span
    // profiler. Their namespace-scope storage is initialised before
    // main() and so before this registration; atexit handlers and
    // static destructors run in reverse order, so the atexit flush
    // still sees both alive.
    std::atexit(obsAtexitFlush);
    std::signal(SIGINT, obsSignalFlush);
    std::signal(SIGTERM, obsSignalFlush);
}

} // anonymous namespace

StatsRegistry &
registry()
{
    static StatsRegistry reg;
    return reg;
}

ObsFlags
parseObsFlags(int &argc, char **argv)
{
    ObsFlags flags;
    flags.stats_json = util::envString("PGSS_STATS_JSON", "");
    flags.profile_out = util::envString("PGSS_PROFILE_OUT", "");
    flags.timelines =
        util::envString("PGSS_TIMELINES", "") == "1";
    flags.profile = util::envString("PGSS_PROFILE", "") == "1";

    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = flagValue(argv[i], "--stats-json")) {
            flags.stats_json = v;
        } else if (const char *v2 =
                       flagValue(argv[i], "--profile-out")) {
            flags.profile_out = v2;
        } else if (std::strcmp(argv[i], "--timelines") == 0) {
            flags.timelines = true;
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            flags.profile = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;

    if (!flags.profile_out.empty())
        flags.profile = true;
    return flags;
}

void
applyObsFlags(const ObsFlags &flags)
{
    state().stats_json_path = flags.stats_json;
    state().profile_out_path = flags.profile_out;
    if (flags.timelines)
        setTimelineRecorder(std::make_unique<TimelineRecorder>());
    if (flags.profile)
        setSpanProfiler(std::make_unique<SpanProfiler>());
}

void
registerRobustnessStats()
{
    static bool done = false;
    if (done)
        return;
    done = true;

    // Dotted fault-site names ("cache.write") map to a child group per
    // prefix with two counters per site: how often the site was
    // evaluated while fault injection was armed, and how often a
    // fault was actually injected.
    Group &fi_root = registry().root().child(
        "fi", "fault-injection site activity (PGSS_FI)");
    for (util::fi::Site *site : util::fi::sites()) {
        const std::string full = site->name();
        const std::size_t dot = full.find('.');
        Group &g = dot == std::string::npos
                       ? fi_root
                       : fi_root.child(full.substr(0, dot));
        const std::string leaf =
            dot == std::string::npos ? full : full.substr(dot + 1);
        g.addCounter(leaf + "_checks",
                     "times this fault site was evaluated",
                     [site] { return site->checks(); });
        g.addCounter(leaf + "_injected",
                     "faults injected at this site",
                     [site] { return site->triggers(); });
    }

    // Degradation counters tick when the robustness machinery absorbs
    // damage (quarantine, failed best-effort write, torn journal
    // line). Interned eagerly so they report 0 in clean runs instead
    // of being absent.
    static const char *const robust_names[] = {
        "cache.quarantined",  "cache.store_failed",
        "report.write_failed", "journal.torn_lines",
    };
    for (const char *name : robust_names)
        util::fi::counter(name);
    Group &robust = registry().root().child(
        "robust", "robustness degradation events");
    for (const auto &[name, value] : util::fi::counters()) {
        (void)value;
        const std::size_t dot = name.find('.');
        Group &g = dot == std::string::npos
                       ? robust
                       : robust.child(name.substr(0, dot));
        const std::string leaf =
            dot == std::string::npos ? name : name.substr(dot + 1);
        // counter() hands out references with process lifetime, so
        // capturing the atomic by pointer is safe across dumps.
        const std::atomic<std::uint64_t> *c =
            &util::fi::counter(name);
        g.addCounter(leaf, "degradation events absorbed",
                     [c] { return c->load(); });
    }
}

void
initFromCli(int &argc, char **argv, const std::string &program_name)
{
    state().program = program_name;
    util::fi::configureFromEnv();
    registerRobustnessStats();
    const ObsFlags flags = parseObsFlags(argc, argv);
    applyObsFlags(flags);
    installExitHandlers();
    g_finalized.store(false);
}

void
setReportMeta(const std::string &key, const std::string &value)
{
    for (auto &kv : state().meta_str) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    state().meta_str.emplace_back(key, value);
}

void
setReportMeta(const std::string &key, double value)
{
    for (auto &kv : state().meta_num) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    state().meta_num.emplace_back(key, value);
}

std::string
reportJsonString()
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "pgss-run-report");
    w.field("schema_version", std::uint64_t{report_schema_version});
    w.field("program", state().program);
    w.field("partial", state().partial);
    w.beginObject("meta");
    for (const auto &kv : state().meta_str)
        w.field(kv.first, kv.second);
    for (const auto &kv : state().meta_num)
        w.field(kv.first, kv.second);
    w.endObject();
    registry().dumpJson(w);
    // Flat path -> registry-kind map, so the offline Prometheus
    // export (pgss_report metrics) types counters as counters.
    // Reports predating this section fall back to gauge.
    w.beginObject("stat_kinds");
    for (const auto &[path, kind] : registry().flattenKinds())
        w.field(path,
                kind == StatKind::Counter ? "counter" : "gauge");
    w.endObject();
    if (const SpanProfiler *prof = spanProfiler())
        prof->dumpProfileJson(w);
    if (const TimelineRecorder *rec = timelines())
        rec->dumpJson(w);
    w.endObject();
    return w.str();
}

bool
finalize()
{
    g_finalized.store(true);
    const bool report_ok = writeReportFile();
    const bool prof_ok = writeProfileTrace();
    return report_ok && prof_ok;
}

const std::string &
statsJsonPath()
{
    return state().stats_json_path;
}

const std::string &
profileOutPath()
{
    return state().profile_out_path;
}

} // namespace pgss::obs
