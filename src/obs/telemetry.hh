/**
 * @file
 * The live telemetry service (DESIGN.md section 12): an embedded HTTP
 * server that makes a running simulation observable while it runs,
 * instead of only post-mortem through the run report. Three
 * endpoints:
 *
 *  - GET /metrics  — Prometheus text format: every registered stat,
 *    numeric report meta (the same dotted->metric
 *    mapping as `pgss_report metrics`), plus live-only process and
 *    per-job progress gauges (pgss_up, pgss_uptime_seconds,
 *    pgss_heartbeat_age_seconds, pgss_jobs_*, pgss_job_*{job=...}).
 *  - GET /healthz  — liveness JSON: uptime, watchdog heartbeat age,
 *    running/done/stalled job counts. HTTP 200 while healthy, 503
 *    when the watchdog flags any stalled job.
 *  - GET /status   — run-progress JSON ("pgss-status" schema): one
 *    object per job (entry, state, phase, ops, expected ops, samples,
 *    CI relative half-width, host MIPS, ETA) plus totals — what
 *    `pgss_top` renders.
 *
 * Enabled with --serve=PORT / PGSS_SERVE_PORT through the shared obs
 * flags (port 0 = ephemeral, printed at startup), so every bench and
 * example binary serves without per-binary wiring. stopTelemetry()
 * runs first in both finalize() and the abnormal-exit flush: the
 * socket closes and threads join *before* the report is written, so
 * an interrupted run leaves the port immediately rebindable and never
 * serves a half-written registry.
 *
 * Rendering a scrape walks the stats registry's getters; the lifetime
 * contract matches dumps (components registered into the global
 * registry stay alive while serving). Scrape cost is a few dozen
 * getter calls plus string assembly — at any sane scrape interval
 * (the acceptance bar is 250 ms) the run-wall-clock overhead is well
 * under 1%.
 */

#ifndef PGSS_OBS_TELEMETRY_HH
#define PGSS_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>

namespace pgss::obs
{

/** Telemetry service knobs. */
struct TelemetryConfig
{
    std::uint16_t port = 0;      ///< 0 = kernel-assigned ephemeral
    double stall_seconds = 30.0; ///< watchdog heartbeat threshold
};

/**
 * Start serving. @return false with @p *error set when the port
 * cannot be bound (the run proceeds unserved — telemetry is never a
 * reason to fail a simulation).
 */
bool startTelemetry(const TelemetryConfig &config,
                    std::string *error = nullptr);

/** Stop and join the server. Idempotent; safe when never started. */
void stopTelemetry();

/** True while serving. */
bool telemetryActive();

/** The bound port (resolves port 0), or 0 when not serving. */
std::uint16_t telemetryPort();

/** The /metrics payload (also served; exposed for tests). */
std::string renderLiveMetrics();

/** The /status payload (also served; exposed for tests). */
std::string renderLiveStatus();

/** The /healthz payload; @p *status_out gets 200 or 503. */
std::string renderLiveHealth(int *status_out = nullptr);

} // namespace pgss::obs

#endif // PGSS_OBS_TELEMETRY_HH
