#include "obs/telemetry.hh"

#include <memory>
#include <mutex>
#include <sstream>

#include "obs/json.hh"
#include "obs/progress.hh"
#include "obs/prometheus.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/net/http.hh"

namespace pgss::obs
{

namespace
{

struct TelemetryState
{
    std::mutex mutex;
    std::unique_ptr<util::net::HttpServer> server;
    TelemetryConfig config;
    double start_seconds = 0.0;
};

TelemetryState &
tstate()
{
    static TelemetryState s;
    return s;
}

double
uptimeSeconds()
{
    return wallSeconds() - tstate().start_seconds;
}

/**
 * The report-equivalent flattened values (meta, stats — the order
 * loadReport() flattens a run report in) plus their types, so
 * the scraped and exported metric families are identical for shared
 * paths.
 */
void
liveReportValues(std::vector<std::pair<std::string, double>> &values,
                 std::vector<MetricType> &types)
{
    for (const auto &[key, v] : reportMetaNumbers()) {
        values.emplace_back("meta." + key, v);
        types.push_back(MetricType::Gauge);
    }
    for (const auto &[path, kind] : registry().flattenKinds())
        types.push_back(kind == StatKind::Counter
                            ? MetricType::Counter
                            : MetricType::Gauge);
    for (auto &pv : registry().flattenValues())
        values.push_back(std::move(pv));
}

/** One labelled gauge/counter sample per job for family @p leaf. */
MetricFamily
jobFamily(const ProgressSnapshot &snap, const char *leaf,
          const char *help, MetricType type,
          const std::function<double(const JobSnapshot &)> &get)
{
    MetricFamily f;
    f.name = std::string("pgss_job_") + leaf;
    f.help = help;
    f.type = type;
    for (const JobSnapshot &j : snap.jobs) {
        MetricSample s;
        s.labels.emplace_back("job", std::to_string(j.index));
        s.labels.emplace_back("entry", j.name);
        s.value = get(j);
        f.samples.push_back(std::move(s));
    }
    return f;
}

MetricFamily
scalarFamily(const char *name, const char *help, MetricType type,
             double value)
{
    MetricFamily f;
    f.name = name;
    f.help = help;
    f.type = type;
    f.samples.push_back({{}, value});
    return f;
}

} // anonymous namespace

std::string
renderLiveMetrics()
{
    std::vector<std::pair<std::string, double>> values;
    std::vector<MetricType> types;
    liveReportValues(values, types);
    std::size_t i = 0;
    std::vector<MetricFamily> families = familiesFromValues(
        values, [&types, &i](const std::string &) {
            return i < types.size() ? types[i++]
                                    : MetricType::Gauge;
        });

    const ProgressSnapshot snap =
        progress().snapshot(tstate().config.stall_seconds);
    families.push_back(scalarFamily(
        "pgss_up", "telemetry service is serving",
        MetricType::Gauge, 1.0));
    families.push_back(scalarFamily(
        "pgss_uptime_seconds", "seconds since telemetry start",
        MetricType::Gauge, uptimeSeconds()));
    families.push_back(scalarFamily(
        "pgss_heartbeat_age_seconds",
        "age of the newest running-job heartbeat",
        MetricType::Gauge, snap.heartbeat_age));
    families.push_back(scalarFamily(
        "pgss_jobs_running", "jobs currently running",
        MetricType::Gauge, static_cast<double>(snap.running)));
    families.push_back(scalarFamily(
        "pgss_jobs_done", "jobs finished", MetricType::Gauge,
        static_cast<double>(snap.done)));
    families.push_back(scalarFamily(
        "pgss_jobs_stalled", "running jobs past the watchdog",
        MetricType::Gauge, static_cast<double>(snap.stalled)));
    families.push_back(scalarFamily(
        "pgss_progress_ops_total",
        "instructions retired across all jobs",
        MetricType::Counter,
        static_cast<double>(snap.total_ops)));
    families.push_back(scalarFamily(
        "pgss_progress_samples_total",
        "detailed samples taken across all jobs",
        MetricType::Counter,
        static_cast<double>(snap.total_samples)));

    families.push_back(jobFamily(
        snap, "ops", "instructions retired by this job",
        MetricType::Counter, [](const JobSnapshot &j) {
            return static_cast<double>(j.ops);
        }));
    families.push_back(jobFamily(
        snap, "samples", "detailed samples taken by this job",
        MetricType::Counter, [](const JobSnapshot &j) {
            return static_cast<double>(j.samples);
        }));
    families.push_back(jobFamily(
        snap, "phase", "current phase id", MetricType::Gauge,
        [](const JobSnapshot &j) {
            return static_cast<double>(j.phase);
        }));
    families.push_back(jobFamily(
        snap, "ci_rel",
        "CI relative half-width of the last-sampled phase",
        MetricType::Gauge,
        [](const JobSnapshot &j) { return j.ci_rel; }));
    families.push_back(jobFamily(
        snap, "mips", "host MIPS of this job so far",
        MetricType::Gauge,
        [](const JobSnapshot &j) { return j.mips; }));

    std::ostringstream os;
    renderPromText(os, families);
    return os.str();
}

std::string
renderLiveStatus()
{
    const ProgressSnapshot snap =
        progress().snapshot(tstate().config.stall_seconds);
    JsonWriter w;
    w.beginObject();
    w.field("schema", "pgss-status");
    w.field("schema_version", std::uint64_t{1});
    w.field("program", reportProgramName());
    w.field("uptime_seconds", uptimeSeconds());
    w.beginObject("totals");
    w.field("ops", snap.total_ops);
    w.field("samples", snap.total_samples);
    w.field("jobs_running", snap.running);
    w.field("jobs_done", snap.done);
    w.field("jobs_stalled", snap.stalled);
    w.endObject();
    w.beginArray("jobs");
    for (const JobSnapshot &j : snap.jobs) {
        w.beginObject();
        w.field("job", j.index);
        w.field("entry", j.name);
        w.field("state", j.state == JobState::Done
                             ? "done"
                             : (j.stalled ? "stalled" : "running"));
        w.field("ops", j.ops);
        w.field("expected_ops", j.expected_ops);
        w.field("samples", j.samples);
        w.field("phase", std::uint64_t{j.phase});
        w.field("phases", std::uint64_t{j.phases});
        w.field("ci_rel", j.ci_rel);
        w.field("elapsed_seconds", j.elapsed_seconds);
        w.field("heartbeat_age_seconds", j.heartbeat_age);
        w.field("mips", j.mips);
        w.field("eta_seconds", j.eta_seconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
renderLiveHealth(int *status_out)
{
    const ProgressSnapshot snap =
        progress().snapshot(tstate().config.stall_seconds);
    const bool healthy = snap.stalled == 0;
    if (status_out)
        *status_out = healthy ? 200 : 503;
    JsonWriter w;
    w.beginObject();
    w.field("status", healthy ? "ok" : "stalled");
    w.field("uptime_seconds", uptimeSeconds());
    w.field("heartbeat_age_seconds", snap.heartbeat_age);
    w.field("jobs_running", snap.running);
    w.field("jobs_done", snap.done);
    w.field("jobs_stalled", snap.stalled);
    w.endObject();
    return w.str();
}

bool
startTelemetry(const TelemetryConfig &config, std::string *error)
{
    TelemetryState &st = tstate();
    std::lock_guard<std::mutex> lock(st.mutex);
    if (st.server && st.server->running()) {
        if (error)
            *error = "telemetry already serving on port " +
                     std::to_string(st.server->port());
        return false;
    }
    st.config = config;
    st.start_seconds = wallSeconds();
    auto server = std::make_unique<util::net::HttpServer>();
    server->handle("/metrics", [](const util::net::HttpRequest &) {
        util::net::HttpResponse r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = renderLiveMetrics();
        return r;
    });
    server->handle("/healthz", [](const util::net::HttpRequest &) {
        util::net::HttpResponse r;
        r.content_type = "application/json";
        r.body = renderLiveHealth(&r.status);
        return r;
    });
    server->handle("/status", [](const util::net::HttpRequest &) {
        util::net::HttpResponse r;
        r.content_type = "application/json";
        r.body = renderLiveStatus();
        return r;
    });
    if (!server->start(config.port, error))
        return false;
    st.server = std::move(server);
    util::inform("telemetry: serving /metrics /healthz /status on "
                 "port %u",
                 static_cast<unsigned>(st.server->port()));
    return true;
}

void
stopTelemetry()
{
    TelemetryState &st = tstate();
    std::lock_guard<std::mutex> lock(st.mutex);
    if (!st.server)
        return;
    const std::uint16_t port = st.server->port();
    st.server->stop();
    st.server.reset();
    util::inform("telemetry: stopped (port %u released)",
                 static_cast<unsigned>(port));
}

bool
telemetryActive()
{
    TelemetryState &st = tstate();
    std::lock_guard<std::mutex> lock(st.mutex);
    return st.server && st.server->running();
}

std::uint16_t
telemetryPort()
{
    TelemetryState &st = tstate();
    std::lock_guard<std::mutex> lock(st.mutex);
    return st.server ? st.server->port() : 0;
}

} // namespace pgss::obs
