/**
 * @file
 * End-to-end benchmark driver for PGSS-Sim (README.md beside this file
 * has the metric table). One invocation runs one named workload for a
 * fixed host-time budget as a closed loop on one thread: each
 * operation (one sampled-simulation run or one profile build) starts
 * when the previous one ends. Every operation's output is checked; a
 * violated check or an exception counts as a failed operation instead
 * of ending the run. The metrics go to the last line of stdout as one
 * JSON object.
 *
 *   pgss_e2e prepare --cache DIR --scale S
 *   pgss_e2e run --workload W --seed N --seconds T --trace 0|1
 *                --cache DIR --scale S [--input I] [--fail-op K]
 *
 * Only the simulator's public entry points are called, and they are
 * timed from here: thread-CPU time, rescaled to a reference host speed
 * by a benchmark-owned kernel, for the untraced end-to-end numbers;
 * the repository's obs/spans for the traced per-layer numbers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval_profile.hh"
#include "analysis/profile_cache.hh"
#include "bbv/hashed_bbv.hh"
#include "core/pgss_controller.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "sampling/online_simpoint.hh"
#include "sampling/simpoint_sampler.hh"
#include "sampling/smarts.hh"
#include "sampling/turbosmarts.hh"
#include "sim/engine.hh"
#include "workload/suite.hh"

using namespace pgss;

namespace
{

using Clock = std::chrono::steady_clock;

// ---- Fixed benchmark configuration ---------------------------------

/** Ground-truth granularity (the paper's finest analysis grain). */
constexpr std::uint64_t kProfileInterval = 100'000;

/** PGSS(1M, 0.05 pi), the paper's headline configuration. */
constexpr std::uint64_t kPgssPeriod = 1'000'000;
constexpr double kPgssThreshold = 0.05; // x pi

/** The technique sweep's PGSS grid. */
const std::vector<std::uint64_t> kSweepPeriods = {100'000, kPgssPeriod};
const std::vector<double> kSweepThresholds = {kPgssThreshold, 0.10};

/**
 * Offline SimPoint. The benchmark's programs are far shorter than the
 * paper's (README.md, "Scale"), so the interval sizes are too. The
 * accuracy metric is taken at 10 clusters of kSimPointInterval: 40 to
 * 90 intervals per program, so k-means really clusters them (with
 * fewer intervals than clusters every interval is its own simulation
 * point and the estimate equals the ground truth).
 */
const std::vector<std::uint64_t> kSimPointIntervals = {100'000, 200'000,
                                                       500'000};
const std::vector<std::uint32_t> kSimPointKs = {5, 10, 20};
constexpr std::uint64_t kSimPointInterval = 100'000;
constexpr std::uint32_t kSimPointK = 10;

/** Online SimPoint interval and thresholds (x pi). */
constexpr std::uint64_t kOnlineInterval = 500'000;
const std::vector<double> kOnlineThresholds = {0.05, 0.10, 0.15};
constexpr double kOnlineThreshold = 0.10;

/** Set-up repetitions per run (setup_s is their median). */
constexpr int kSetupReps = 41;

/** fig12's programs: warm-bound gzip/equake, memory-bound art/mcf. */
const std::vector<std::string> kSweepPrograms = {
    "164.gzip", "179.art", "181.mcf", "183.equake"};

const sim::EngineConfig &
engineConfig()
{
    static const sim::EngineConfig config; // the paper's machine
    return config;
}

// ---- Small helpers -------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
mean(const std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs)
        s += x;
    return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

std::string
fmt17(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

std::string
fmtThreshold(double x)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2f", x);
    return buf;
}

/** " key=value" digest fields; doubles print with all 17 digits. */
std::string
kv(const std::string &key, double v)
{
    return " " + key + "=" + fmt17(v);
}

std::string
kv(const std::string &key, std::uint64_t v)
{
    return " " + key + "=" + std::to_string(v);
}

void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error(what);
}

void
checkEstimate(double x, const std::string &what)
{
    check(std::isfinite(x) && x > 0.0,
          what + " is not finite and > 0: " + fmt17(x));
}

double
relError(double est, double truth)
{
    return std::abs(est - truth) / truth;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** CPU seconds this thread has run (time stolen by the host excluded). */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Reference kernel ----------------------------------------------

/**
 * A fixed piece of work owned by the benchmark, shaped like the
 * simulator's warm loop: a switch-dispatched interpreter of a random
 * register-machine program over an 8 MiB memory, each fetch and memory
 * access looked up in a two-level set-associative tag array (64 x 8
 * and 4096 x 8) and each branch predicted by a 64 Ki-entry gshare
 * table. Nothing in src/ changes its cost, so its thread-CPU time
 * measures how fast the shared host runs such code at the moment.
 * README.md ("Host speed") explains its use.
 */
class ReferenceKernel
{
  public:
    /**
     * About its thread-CPU seconds on an idle 4-vCPU Intel Xeon VM: the
     * host speed that norm_pass_s and setup_s are scaled to.
     */
    static constexpr double kNominalSeconds = 0.30e-3;

    ReferenceKernel()
        : mem_(kMemWords), l1_(kL1Sets * kWays),
          l2_(kL2Sets * kWays), bp_(kBpEntries)
    {
        std::uint64_t x = 0x5eed;
        for (std::uint64_t &w : mem_)
            w = x = splitmix64(x);
        for (std::uint64_t &w : code_)
            w = x = splitmix64(x);
    }

    /** Time one fixed run, the least of kReps, and keep the sample. */
    void
    sample()
    {
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < kReps; ++rep) {
            const double t0 = threadCpuSeconds();
            sink_ ^= run();
            best = std::min(best, threadCpuSeconds() - t0);
        }
        samples_.push_back(best);
    }

    /**
     * Seconds at the reference host speed of work that took @p cpu
     * thread-CPU seconds since the last sample: takes a new sample and
     * scales @p cpu by kNominalSeconds over the geometric mean of the
     * samples either side of the work.
     */
    double
    normalize(double cpu)
    {
        sample();
        const std::size_t n = samples_.size();
        return cpu * kNominalSeconds /
               std::sqrt(samples_[n - 2] * samples_[n - 1]);
    }

    /** Median of the samples taken so far, in seconds. */
    double medianSeconds() const { return median(samples_); }

  private:
    static constexpr std::size_t kCodeLen = 4096;
    static constexpr std::size_t kMemWords = 1 << 20; // 8 MiB
    static constexpr std::size_t kL1Sets = 64;
    static constexpr std::size_t kL2Sets = 4096;
    static constexpr std::size_t kWays = 8;
    static constexpr std::size_t kBpEntries = 1 << 16;
    static constexpr std::uint64_t kSteps = 100'000;
    static constexpr int kReps = 3;

    /** Look up @p addr's line in L1, then L2; fill on a miss. */
    void
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr >> 6;
        std::uint64_t *l1 = &l1_[(line % kL1Sets) * kWays];
        for (std::size_t w = 0; w < kWays; ++w)
            if (l1[w] == line) {
                ++hits_;
                return;
            }
        l1[victim_ % kWays] = line;
        std::uint64_t *l2 = &l2_[(line % kL2Sets) * kWays];
        for (std::size_t w = 0; w < kWays; ++w)
            if (l2[w] == line) {
                ++hits_;
                return;
            }
        l2[victim_++ % kWays] = line;
    }

    std::uint64_t
    run()
    {
        std::array<std::uint64_t, 16> r{};
        for (std::size_t i = 0; i < r.size(); ++i)
            r[i] = i * 0x9e3779b97f4a7c15ull;
        std::size_t pc = 0;
        std::uint64_t history = 0;
        for (std::uint64_t step = 0; step < kSteps; ++step) {
            const std::uint64_t inst = code_[pc];
            std::uint64_t &ra = r[(inst >> 8) % r.size()];
            const std::uint64_t rb = r[(inst >> 16) % r.size()];
            const std::uint32_t imm = static_cast<std::uint32_t>(inst >> 32);
            access(0x400000 + pc * 4);
            pc = (pc + 1) % kCodeLen;
            switch (inst % 6) {
              case 0:
                ra += rb + imm;
                break;
              case 1:
                ra ^= (rb << 7) | (rb >> 57);
                break;
              case 2: {
                const std::size_t a = (rb + imm) % kMemWords;
                access(a * 8);
                ra = mem_[a];
                break;
              }
              case 3: {
                const std::size_t a = (ra + imm) % kMemWords;
                access(a * 8);
                mem_[a] = rb;
                break;
              }
              case 4: {
                const bool taken = (ra ^ rb) & 1;
                std::uint8_t &ctr = bp_[(pc ^ history) % kBpEntries];
                if ((ctr >= 2) != taken)
                    hits_ += 3;
                ctr = taken ? (ctr < 3 ? ctr + 1 : 3) : (ctr ? ctr - 1 : 0);
                history = (history << 1) | taken;
                if (taken)
                    pc = imm % kCodeLen;
                break;
              }
              default:
                ra = rb * 0x100000001b3ull + step;
                break;
            }
        }
        std::uint64_t h = hits_;
        for (std::uint64_t v : r)
            h ^= v;
        return h;
    }

    std::array<std::uint64_t, kCodeLen> code_{};
    std::vector<std::uint64_t> mem_, l1_, l2_;
    std::vector<std::uint8_t> bp_;
    std::uint64_t victim_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t sink_ = 0; ///< keeps the runs' results live
    std::vector<double> samples_;
};

// ---- Spans ---------------------------------------------------------

/**
 * Installs a fresh process-wide span profiler for its lifetime (when
 * enabled) and sums the durations of this benchmark's own spans (the
 * "e2e." names) by name. Single-threaded use only, like the profiler.
 */
class SpanSession
{
  public:
    explicit SpanSession(bool enabled) : enabled_(enabled)
    {
        if (!enabled_)
            return;
        obs::SpanProfilerConfig config;
        config.ring_capacity = 1 << 17;
        config.calibrate = false;
        obs::setSpanProfiler(std::make_unique<obs::SpanProfiler>(config));
    }

    ~SpanSession()
    {
        if (enabled_)
            obs::setSpanProfiler(nullptr);
    }

    SpanSession(const SpanSession &) = delete;
    SpanSession &operator=(const SpanSession &) = delete;

    /** Seconds per span name, "e2e." prefix dropped. */
    std::map<std::string, double>
    totals() const
    {
        std::map<std::string, double> out;
        if (!enabled_)
            return out;
        for (const obs::SpanBuffer *b : obs::spanProfiler()->buffers())
            for (const obs::SpanRecord &r : b->records())
                if (std::strncmp(r.name, "e2e.", 4) == 0)
                    out[r.name + 4] +=
                        static_cast<double>(r.dur_ns) / 1e9;
        return out;
    }

    /** False when a ring wrapped, so totals() misses records. */
    bool
    complete() const
    {
        return !enabled_ || obs::spanProfiler()->totalDropped() == 0;
    }

  private:
    bool enabled_;
};

/** Per span name, one total per session (pass or set-up repetition). */
using LayerSamples = std::map<std::string, std::vector<double>>;

void
addTotals(LayerSamples &into, const std::map<std::string, double> &totals)
{
    for (const auto &[name, secs] : totals)
        into[name].push_back(secs);
}

// ---- Workloads -----------------------------------------------------

enum class OpKind : std::uint8_t
{
    Pgss,
    Smarts,
    SimPoint,
    OnlineSimPoint,
    ProfileBuild,
};

/** One operation: a sampled-simulation run or a profile build. */
struct Op
{
    OpKind kind = OpKind::Pgss;
    std::size_t prog = 0;   ///< index into the workload's programs
    std::uint64_t size = 0; ///< PGSS period or SimPoint interval (ops)
    double threshold = 0.0; ///< PGSS angle threshold (x pi)
    bool sweep = false;     ///< SimPoint/Online: every configuration
};

/**
 * A workload: its programs, the operations one timed pass runs, and
 * the operations run once afterwards, untimed, so that every workload
 * reports every accuracy metric and calls every layer at least once.
 */
struct Plan
{
    std::vector<std::string> programs;
    std::vector<Op> timed;
    std::vector<Op> followup;
};

Op
fixedPgss(std::size_t p)
{
    return {OpKind::Pgss, p, kPgssPeriod, kPgssThreshold};
}

/** The baselines' accuracy configurations on program @p p. */
void
addBaselines(std::vector<Op> &ops, std::size_t p)
{
    ops.push_back({OpKind::Smarts, p});
    ops.push_back({OpKind::SimPoint, p, kSimPointInterval});
    ops.push_back({OpKind::OnlineSimPoint, p});
}

std::optional<Plan>
planFor(const std::string &name)
{
    Plan plan;
    if (name == "pgss_suite") {
        // What users run: one PGSS(1M/0.05pi) pass per suite program.
        plan.programs = workload::suiteNames();
        for (std::size_t p = 0; p < plan.programs.size(); ++p) {
            plan.timed.push_back(fixedPgss(p));
            addBaselines(plan.followup, p);
        }
        plan.followup.push_back({OpKind::ProfileBuild, 0});
    } else if (name == "technique_sweep") {
        // fig12 in miniature: each program simulated many times; the
        // only workload on FunctionalFast and k-means.
        plan.programs = kSweepPrograms;
        for (std::size_t p = 0; p < plan.programs.size(); ++p) {
            for (std::uint64_t period : kSweepPeriods)
                for (double th : kSweepThresholds)
                    plan.timed.push_back({OpKind::Pgss, p, period, th});
            plan.timed.push_back({OpKind::Smarts, p});
            for (std::uint64_t interval : kSimPointIntervals)
                plan.timed.push_back(
                    {OpKind::SimPoint, p, interval, 0.0, true});
            plan.timed.push_back(
                {OpKind::OnlineSimPoint, p, 0, 0.0, true});
        }
        plan.followup.push_back({OpKind::ProfileBuild, 0});
    } else if (name == "ground_truth") {
        // Full detailed simulation only, bypassing the profile cache.
        plan.programs = workload::suiteNames();
        for (std::size_t p = 0; p < plan.programs.size(); ++p) {
            plan.timed.push_back({OpKind::ProfileBuild, p});
            plan.followup.push_back(fixedPgss(p));
            addBaselines(plan.followup, p);
        }
    } else {
        return std::nullopt;
    }
    return plan;
}

std::string
label(const Op &op, const std::vector<std::string> &programs)
{
    const std::string &prog = programs[op.prog];
    switch (op.kind) {
      case OpKind::Pgss:
        return "pgss/" + prog + "/" + std::to_string(op.size) + "/" +
               fmtThreshold(op.threshold);
      case OpKind::Smarts:
        return "smarts/" + prog;
      case OpKind::SimPoint:
        return "simpoint/" + prog + "/" + std::to_string(op.size);
      case OpKind::OnlineSimPoint:
        return "online_simpoint/" + prog;
      case OpKind::ProfileBuild:
        return "profile_build/" + prog;
    }
    return "?";
}

// ---- Operations ----------------------------------------------------

/** The programs of a run and their cached ground truth. */
struct Inputs
{
    std::vector<workload::BuiltWorkload> built;
    std::vector<analysis::IntervalProfile> truth;
};

/** What one successful operation produced. */
struct OpResult
{
    std::string digest; ///< every estimate (%.17g) and count
    sim::ModeOps ops;   ///< simulated instructions by mode

    /** Set by the configurations the accuracy metrics are taken at. */
    std::optional<double> pgss_err, smarts_err, simpoint_err;
    std::uint64_t pgss_detailed_ops = 0;
    std::uint64_t periods = 0, samples = 0, phases = 0;
};

OpResult
runPgss(const Op &op, const Inputs &in)
{
    const analysis::IntervalProfile &truth = in.truth[op.prog];
    core::PgssConfig cfg;
    cfg.bbv_period = op.size;
    cfg.threshold = op.threshold * M_PI;
    cfg.jitter_samples = false; // period-start placement, as in fig12
    core::PgssController controller(cfg);
    obs::StatsRegistry stats;
    controller.registerStats(stats.root());
    sim::SimulationEngine engine(in.built[op.prog].program,
                                 engineConfig());
    core::PgssResult r;
    {
        PGSS_SPAN("e2e.core.pgss_run", Bench);
        r = controller.run(engine);
    }

    check(r.mode_ops.total() == r.total_ops &&
              r.total_ops == truth.totalOps(),
          "PGSS op accounting: mode_ops.total()=" +
              std::to_string(r.mode_ops.total()) +
              " total_ops=" + std::to_string(r.total_ops) +
              " program=" + std::to_string(truth.totalOps()));
    const std::uint64_t window = cfg.detailed_warmup + cfg.detailed_sample;
    check(r.detailed_ops == r.n_samples * window,
          "PGSS detailed_ops=" + std::to_string(r.detailed_ops) +
              " != samples x window = " + std::to_string(r.n_samples) +
              " x " + std::to_string(window));
    checkEstimate(r.est_ipc, "PGSS IPC");
    checkEstimate(r.est_cpi, "PGSS CPI");

    OpResult out;
    out.ops = r.mode_ops;
    out.digest = kv("est_ipc", r.est_ipc) + kv("est_cpi", r.est_cpi) +
                 kv("samples", r.n_samples) + kv("phases", r.n_phases) +
                 kv("phase_changes", r.n_phase_changes) +
                 kv("detailed_ops", r.detailed_ops) +
                 kv("warm_ops", r.mode_ops.functional_warm);
    if (op.size == kPgssPeriod && op.threshold == kPgssThreshold) {
        checkEstimate(truth.trueIpc(), "ground-truth IPC");
        out.pgss_err = relError(r.est_ipc, truth.trueIpc());
        out.pgss_detailed_ops = r.detailed_ops;
        out.periods = stats.counterValue("pgss.periods").value_or(0);
        out.samples = stats.counterValue("pgss.samples").value_or(0);
        out.phases = stats.counterValue("pgss.phases").value_or(0);
    }
    return out;
}

OpResult
runSmartsOp(const Op &op, const Inputs &in, std::uint64_t turbo_seed)
{
    const analysis::IntervalProfile &truth = in.truth[op.prog];
    sim::SimulationEngine engine(in.built[op.prog].program,
                                 engineConfig());
    sampling::TurboSmartsConfig turbo_cfg;
    turbo_cfg.seed = turbo_seed;
    sampling::SmartsRun run;
    sampling::SamplerResult turbo;
    {
        // TurboSMARTS draws from the population SMARTS measured.
        PGSS_SPAN("e2e.sampling.smarts", Bench);
        run = sampling::runSmarts(engine);
        turbo = sampling::runTurboSmarts(run.sample_cpis, turbo_cfg);
    }

    const sampling::SamplerResult &s = run.result;
    check(s.functional_ops + s.detailed_ops == truth.totalOps(),
          "SMARTS functional_ops + detailed_ops = " +
              std::to_string(s.functional_ops + s.detailed_ops) +
              " != program length " + std::to_string(truth.totalOps()));
    checkEstimate(s.est_ipc, "SMARTS IPC");
    checkEstimate(turbo.est_ipc, "TurboSMARTS IPC");
    checkEstimate(truth.trueIpc(), "ground-truth IPC");

    OpResult out;
    out.ops = engine.modeOps();
    out.smarts_err = relError(s.est_ipc, truth.trueIpc());
    out.digest = kv("smarts_ipc", s.est_ipc) +
                 kv("smarts_samples", s.n_samples) +
                 kv("smarts_detailed_ops", s.detailed_ops) +
                 kv("turbo_ipc", turbo.est_ipc) +
                 kv("turbo_samples", turbo.n_samples) +
                 kv("turbo_detailed_ops", turbo.detailed_ops);
    return out;
}

OpResult
runSimPointOp(const Op &op, const Inputs &in)
{
    const analysis::IntervalProfile &truth = in.truth[op.prog];
    std::uint64_t functional_ops = 0;
    std::vector<bbv::SparseBbv> bbvs;
    {
        PGSS_SPAN("e2e.sampling.collect_bbvs", Bench);
        bbvs = sampling::collectIntervalBbvs(in.built[op.prog].program,
                                             engineConfig(), op.size,
                                             functional_ops);
    }
    check(functional_ops == truth.totalOps(),
          "SimPoint BBV pass ran " + std::to_string(functional_ops) +
              " ops of " + std::to_string(truth.totalOps()));
    check(!bbvs.empty(), "SimPoint: program shorter than one interval");

    OpResult out;
    out.ops.functional_fast = functional_ops;
    out.digest = kv("intervals", std::uint64_t{bbvs.size()});
    const std::vector<std::uint32_t> ks =
        op.sweep ? kSimPointKs : std::vector<std::uint32_t>{kSimPointK};
    for (std::uint32_t k : ks) {
        sampling::SimPointConfig cfg;
        cfg.interval_ops = op.size;
        cfg.clusters = k;
        sampling::SimPointRun run;
        {
            PGSS_SPAN("e2e.cluster.simpoint", Cluster);
            run = sampling::runSimPointOnBbvs(bbvs, cfg, truth,
                                              functional_ops);
        }
        checkEstimate(run.result.est_ipc, "SimPoint IPC");
        const std::string key = "k" + std::to_string(k);
        out.digest += kv(key + "_ipc", run.result.est_ipc) +
                      kv(key + "_detailed_ops", run.result.detailed_ops);
        if (op.size == kSimPointInterval && k == kSimPointK)
            out.simpoint_err =
                relError(run.result.est_ipc, truth.trueIpc());
    }
    return out;
}

OpResult
runOnlineOp(const Op &op, const Inputs &in)
{
    const analysis::IntervalProfile &truth = in.truth[op.prog];
    const std::vector<double> thresholds =
        op.sweep ? kOnlineThresholds
                 : std::vector<double>{kOnlineThreshold};
    OpResult out;
    for (double th : thresholds) {
        sampling::OnlineSimPointConfig cfg;
        cfg.interval_ops = kOnlineInterval;
        cfg.threshold = th * M_PI;
        sampling::SamplerResult r;
        {
            PGSS_SPAN("e2e.sampling.online_simpoint", Bench);
            r = sampling::runOnlineSimPoint(truth, cfg);
        }
        checkEstimate(r.est_ipc, "Online SimPoint IPC");
        const std::string key = "th" + fmtThreshold(th);
        out.digest += kv(key + "_ipc", r.est_ipc) +
                      kv(key + "_samples", r.n_samples);
    }
    return out;
}

OpResult
runProfileBuild(const Op &op, const Inputs &in)
{
    analysis::IntervalProfile fresh;
    {
        PGSS_SPAN("e2e.analysis.profile_build", Bench);
        fresh = analysis::buildIntervalProfile(
            in.built[op.prog].program, engineConfig(), kProfileInterval);
    }
    checkEstimate(fresh.trueIpc(), "ground-truth IPC");
    // The accuracy metrics rest on the cached ground truth: it must be
    // what the simulator as built produces now.
    check(analysis::serializeProfile(fresh) ==
              analysis::serializeProfile(in.truth[op.prog]),
          "fresh ground truth differs from the cached profile");

    OpResult out;
    out.ops.detailed_measure = fresh.totalOps();
    out.digest = kv("true_ipc", fresh.trueIpc()) +
                 kv("ops", fresh.totalOps()) +
                 kv("cycles", fresh.totalCycles()) +
                 kv("intervals", std::uint64_t{fresh.intervals()});
    return out;
}

OpResult
execute(const Op &op, const Inputs &in, std::uint64_t turbo_seed)
{
    switch (op.kind) {
      case OpKind::Pgss:
        return runPgss(op, in);
      case OpKind::Smarts:
        return runSmartsOp(op, in, turbo_seed);
      case OpKind::SimPoint:
        return runSimPointOp(op, in);
      case OpKind::OnlineSimPoint:
        return runOnlineOp(op, in);
      case OpKind::ProfileBuild:
        return runProfileBuild(op, in);
    }
    throw std::logic_error("unknown operation kind");
}

/** Attempted and failed operations of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t fail_op = 0; ///< attempt to fail on purpose (0: none)

    void
    fail(const std::string &what, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "pgss_e2e: %s failed: %s\n", what.c_str(),
                     why.c_str());
    }
};

/** One operation's cost. */
struct OpTime
{
    double wall = 0.0; ///< wall-clock seconds
    double cpu = 0.0;  ///< thread-CPU seconds
};

/**
 * Run @p op once. A violated check or an exception is counted as a
 * failure and yields nullopt; @p time receives its cost.
 */
std::optional<OpResult>
attempt(const Op &op, const std::string &what, const Inputs &in,
        std::uint64_t turbo_seed, Tally &tally, OpTime &time)
{
    ++tally.attempted;
    const Clock::time_point t0 = Clock::now();
    const double c0 = threadCpuSeconds();
    try {
        if (tally.attempted == tally.fail_op)
            throw std::runtime_error("failure injected by --fail-op");
        OpResult r = execute(op, in, turbo_seed);
        time.cpu = threadCpuSeconds() - c0;
        time.wall = secondsSince(t0);
        return r;
    } catch (const std::exception &e) {
        tally.fail(what, e.what());
        return std::nullopt;
    }
}

// ---- Layer decomposition -------------------------------------------

/**
 * The layer-decomposition levels: FunctionalCore::step() alone, then
 * one warming layer added at a time in the order the engine's warm
 * loop applies them; step() plus the detailed pipeline; and the
 * engine's own run() in three modes.
 */
enum class Level : int
{
    Step,
    Bbv,
    WarmInst,
    WarmData,
    Branch,
    Pipeline,
    Warm,
    Detailed,
    Fast,
};
constexpr int kLevels = 9;

/** Span name per Level (static storage: records keep the pointer). */
constexpr std::array<const char *, kLevels> kLevelSpans = {
    "e2e.decomp.step",
    "e2e.decomp.bbv",
    "e2e.decomp.warm_inst",
    "e2e.decomp.warm_data",
    "e2e.decomp.branch",
    "e2e.decomp.pipeline",
    "e2e.decomp.functional_warm",
    "e2e.decomp.detailed",
    "e2e.decomp.functional_fast",
};

/**
 * Drive @p engine's components directly for up to @p n ops, adding the
 * layers up to @p L the way the engine's FunctionalWarm loop does
 * (Pipeline instead feeds step() into the timing model alone).
 */
template <Level L>
std::uint64_t
componentLoop(sim::SimulationEngine &engine, std::uint64_t n)
{
    constexpr bool warm = L != Level::Pipeline;
    const sim::EngineConfig &cfg = engine.config();
    cpu::FunctionalCore &core = engine.core();
    [[maybe_unused]] mem::CacheHierarchy &hierarchy = engine.hierarchy();
    [[maybe_unused]] timing::BranchUnit &branch = engine.branchUnit();
    [[maybe_unused]] timing::InOrderPipeline &pipeline = engine.pipeline();
    [[maybe_unused]] bbv::HashedBbv hashed(cfg.hashed_bbv);
    [[maybe_unused]] const std::uint64_t line_bytes =
        cfg.hierarchy.l1i.line_bytes;
    [[maybe_unused]] const std::uint64_t inst_bytes =
        cfg.pipeline.bytes_per_inst;
    [[maybe_unused]] std::uint64_t since_taken = 0;
    [[maybe_unused]] std::uint64_t fetch_line = ~0ull;

    cpu::DynInst rec;
    std::uint64_t done = 0;
    while (done < n && core.step(rec)) {
        ++done;
        if constexpr (warm && L >= Level::Bbv) {
            ++since_taken;
            if (rec.taken) {
                hashed.onTakenBranch(isa::instAddr(rec.pc), since_taken);
                since_taken = 0;
            }
        }
        if constexpr (warm && L >= Level::WarmInst) {
            // Deduplicated by line change, as the engine does.
            const std::uint64_t line = rec.pc * inst_bytes / line_bytes;
            if (line != fetch_line) {
                fetch_line = line;
                hierarchy.warmInst(rec.pc * inst_bytes);
            }
        }
        if constexpr (warm && L >= Level::WarmData) {
            if (rec.is_load || rec.is_store)
                hierarchy.warmData(rec.mem_addr, rec.is_store);
        }
        if constexpr (warm && L >= Level::Branch) {
            if (rec.is_branch || rec.is_jump)
                branch.predictAndTrain(rec);
        }
        if constexpr (L == Level::Pipeline)
            pipeline.consume(rec);
    }
    return done;
}

/** Warming-state counters of the FunctionalWarm decomposition runs. */
struct WarmCounts
{
    std::uint64_t l1d_hits = 0, l1d_misses = 0;
    std::uint64_t l2_hits = 0, l2_misses = 0;
    std::uint64_t branch_lookups = 0, branch_mispredicts = 0;
};

/**
 * Run @p level for up to @p n ops of @p program on a fresh engine.
 * @return the span's seconds; @p ops receives the ops simulated.
 */
double
runLevel(const isa::Program &program, Level level, std::uint64_t n,
         std::uint64_t &ops, WarmCounts *counts)
{
    sim::SimulationEngine engine(program, engineConfig());
    obs::StatsRegistry stats;
    engine.registerStats(stats.root());
    const char *span_name = kLevelSpans[static_cast<int>(level)];
    SpanSession spans(true);
    {
        obs::ScopedSpan span(span_name, obs::SpanCat::Other);
        switch (level) {
          case Level::Step:
            ops = componentLoop<Level::Step>(engine, n);
            break;
          case Level::Bbv:
            ops = componentLoop<Level::Bbv>(engine, n);
            break;
          case Level::WarmInst:
            ops = componentLoop<Level::WarmInst>(engine, n);
            break;
          case Level::WarmData:
            ops = componentLoop<Level::WarmData>(engine, n);
            break;
          case Level::Branch:
            ops = componentLoop<Level::Branch>(engine, n);
            break;
          case Level::Pipeline:
            ops = componentLoop<Level::Pipeline>(engine, n);
            break;
          case Level::Warm:
            // As PGSS runs it: hashed BBV on.
            engine.setHashedBbvEnabled(true);
            ops = engine.run(n, sim::SimMode::FunctionalWarm).ops;
            break;
          case Level::Detailed:
            engine.setHashedBbvEnabled(true);
            ops = engine.run(n, sim::SimMode::DetailedMeasure).ops;
            break;
          case Level::Fast:
            // As the SimPoint BBV pass runs it: full BBV on.
            engine.setFullBbvEnabled(true);
            ops = engine.run(n, sim::SimMode::FunctionalFast).ops;
            break;
        }
    }
    if (counts) {
        const auto counter = [&stats](const char *path) {
            return stats.counterValue(path).value_or(0);
        };
        counts->l1d_hits += counter("engine.l1d.hits");
        counts->l1d_misses += counter("engine.l1d.misses");
        counts->l2_hits += counter("engine.l2.hits");
        counts->l2_misses += counter("engine.l2.misses");
        counts->branch_lookups += counter("engine.branch.lookups");
        counts->branch_mispredicts += counter("engine.branch.mispredicts");
    }
    return spans.totals()[span_name + 4];
}

/** ns per simulated op per Level, ops-weighted over the programs. */
struct Decomposition
{
    std::array<double, kLevels> ns{};
    WarmCounts counts;

    double at(Level l) const { return ns[static_cast<int>(l)]; }
};

Decomposition
decompose(const Inputs &in)
{
    std::array<double, kLevels> secs{};
    std::array<std::uint64_t, kLevels> ops{};
    Decomposition d;
    // Whole programs, so each phase weighs in as it does in the
    // workload's own runs.
    const std::uint64_t n = std::numeric_limits<std::uint64_t>::max();
    for (const workload::BuiltWorkload &b : in.built) {
        for (int l = 0; l < kLevels; ++l) {
            const Level level = static_cast<Level>(l);
            std::uint64_t done = 0;
            secs[l] += runLevel(b.program, level, n, done,
                                level == Level::Warm ? &d.counts : nullptr);
            ops[l] += done;
        }
    }
    for (int l = 0; l < kLevels; ++l)
        d.ns[l] = ops[l] ? secs[l] / static_cast<double>(ops[l]) * 1e9 : 0.0;
    return d;
}

// ---- Commands ------------------------------------------------------

struct Options
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::uint32_t input = 0;
    std::string cache_dir;
    double scale = 0.0;
    std::uint64_t fail_op = 0;
};

const char *const kUsage =
    "usage: pgss_e2e prepare --cache DIR --scale S\n"
    "       pgss_e2e run --workload pgss_suite|technique_sweep|"
    "ground_truth\n"
    "                --seed N --seconds T --trace 0|1 --cache DIR "
    "--scale S\n"
    "                [--input 0|1|2] [--fail-op K]\n";

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "pgss_e2e: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Options o;
    o.command = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace" && (val == "0" || val == "1"))
                o.trace = val == "1";
            else if (key == "--input" && std::stoul(val) < workload::num_inputs)
                o.input = static_cast<std::uint32_t>(std::stoul(val));
            else if (key == "--cache")
                o.cache_dir = val;
            else if (key == "--scale")
                o.scale = std::stod(val);
            else if (key == "--fail-op")
                o.fail_op = std::stoull(val);
            else
                usage("bad option " + key + " " + val);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (o.cache_dir.empty())
        usage("--cache is required");
    if (!(o.scale > 0.0))
        usage("--scale must be > 0");
    return o;
}

/** Build every missing ground-truth profile of @p programs (untimed). */
void
fillCache(const Options &opt, const std::vector<std::string> &programs,
          std::uint32_t input)
{
    analysis::ProfileCache cache(opt.cache_dir);
    for (const std::string &name : programs) {
        const workload::BuiltWorkload built =
            workload::buildWorkload(name, opt.scale, input);
        if (std::filesystem::exists(cache.pathFor(
                built.program, engineConfig(), kProfileInterval)))
            continue;
        std::fprintf(stderr,
                     "pgss_e2e: building ground truth for %s input %u\n",
                     name.c_str(), input);
        cache.loadOrBuild(built.program, engineConfig(), kProfileInterval);
    }
}

int
prepareCommand(const Options &opt)
{
    for (std::uint32_t input = 0; input < workload::num_inputs; ++input)
        fillCache(opt, workload::suiteNames(), input);
    return 0;
}

/** The timed set-up: build the programs, load their ground truth. */
Inputs
setUp(const Options &opt, const std::vector<std::string> &programs)
{
    Inputs in;
    for (const std::string &name : programs) {
        PGSS_SPAN("e2e.workload.build", Bench);
        in.built.push_back(
            workload::buildWorkload(name, opt.scale, opt.input));
    }
    analysis::ProfileCache cache(opt.cache_dir);
    for (const workload::BuiltWorkload &b : in.built) {
        PGSS_SPAN("e2e.analysis.profile_load", Io);
        in.truth.push_back(cache.loadOrBuild(b.program, engineConfig(),
                                             kProfileInterval));
    }
    return in;
}

/** Sum over operations of each one's median seconds across passes. */
double
sumOfMedians(const std::vector<std::vector<double>> &per_op)
{
    double total = 0.0;
    for (const std::vector<double> &times : per_op)
        total += median(times);
    return total;
}

/** Sum over operations of each one's least seconds across passes. */
double
sumOfMins(const std::vector<std::vector<double>> &per_op)
{
    double total = 0.0;
    for (const std::vector<double> &times : per_op)
        if (!times.empty())
            total += *std::min_element(times.begin(), times.end());
    return total;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

int
runCommand(const Options &opt)
{
    const std::optional<Plan> found = planFor(opt.workload);
    if (!found)
        usage("unknown workload '" + opt.workload + "'");
    const Plan &plan = *found;
    // The seed changes only the TurboSMARTS draw order: every metric is
    // a deterministic function of the program input (--input), so runs
    // with different seeds measure the same work. Seed 0 keeps the
    // library default.
    const std::uint64_t turbo_seed =
        sampling::TurboSmartsConfig{}.seed ^
        (opt.seed ? splitmix64(opt.seed) : 0);
    fillCache(opt, plan.programs, opt.input);

    ReferenceKernel ref;

    // ---- Set-up, repeated; the last repetition's inputs are used.
    Inputs in;
    std::vector<double> setup_s;
    LayerSamples setup_layers;
    bool spans_complete = true;
    ref.sample();
    for (int rep = 0; rep < kSetupReps; ++rep) {
        in = Inputs{};
        SpanSession spans(opt.trace);
        const double c0 = threadCpuSeconds();
        in = setUp(opt, plan.programs);
        setup_s.push_back(ref.normalize(threadCpuSeconds() - c0));
        addTotals(setup_layers, spans.totals());
        spans_complete = spans_complete && spans.complete();
    }

    // ---- Timed passes, closed loop. A traced run alternates traced
    // and untraced passes so it can report its own overhead.
    Tally tally;
    tally.fail_op = opt.fail_op;
    const std::size_t n_ops = plan.timed.size();
    // Seconds at the reference host speed per operation and pass; wall
    // seconds beside the untraced ones, for the text summary.
    std::vector<std::vector<double>> untraced(n_ops), traced(n_ops);
    std::vector<std::vector<double>> untraced_wall(n_ops);
    std::vector<std::optional<OpResult>> first(n_ops);
    LayerSamples pass_layers;
    const int min_passes = opt.trace ? 2 : 1;
    const Clock::time_point start = Clock::now();
    for (int pass = 0;
         pass < min_passes || secondsSince(start) < opt.seconds; ++pass) {
        const bool traced_pass = opt.trace && pass % 2 == 0;
        SpanSession spans(traced_pass);
        for (std::size_t i = 0; i < n_ops; ++i) {
            const std::string what = label(plan.timed[i], plan.programs);
            OpTime t;
            std::optional<OpResult> r =
                attempt(plan.timed[i], what, in, turbo_seed, tally, t);
            const double norm_s = ref.normalize(t.cpu);
            if (!r)
                continue;
            if (!first[i]) {
                first[i] = std::move(r);
            } else if (r->digest != first[i]->digest) {
                tally.fail(what, "output differs from its first run:" +
                                     r->digest + " vs" + first[i]->digest);
                continue;
            }
            (traced_pass ? traced : untraced)[i].push_back(norm_s);
            if (!traced_pass)
                untraced_wall[i].push_back(t.wall);
        }
        addTotals(pass_layers, spans.totals());
        spans_complete = spans_complete && spans.complete();
    }
    // Before the follow-up operations, whose memory is not the workload's.
    const double peak_rss = peakRssMiB();
    std::printf("passes %zu wall_min_s %.17g wall_median_s %.17g "
                "ref_kernel_ms %.17g\n",
                n_ops ? untraced[0].size() : 0, sumOfMins(untraced_wall),
                sumOfMedians(untraced_wall), ref.medianSeconds() * 1e3);

    // ---- Follow-up operations, once, untimed.
    std::vector<std::pair<std::string, OpResult>> results;
    for (std::size_t i = 0; i < n_ops; ++i)
        if (first[i])
            results.emplace_back(label(plan.timed[i], plan.programs),
                                 *first[i]);
    std::map<std::string, double> followup_layers;
    {
        SpanSession spans(opt.trace);
        for (const Op &op : plan.followup) {
            const std::string what = label(op, plan.programs);
            OpTime t;
            if (std::optional<OpResult> r =
                    attempt(op, what, in, turbo_seed, tally, t))
                results.emplace_back(what, std::move(*r));
        }
        followup_layers = spans.totals();
        spans_complete = spans_complete && spans.complete();
    }

    // ---- Digest and accuracy.
    std::vector<double> pgss_err, smarts_err, simpoint_err;
    std::uint64_t pgss_detailed = 0, periods = 0, samples = 0, phases = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const auto &[what, r] : results) {
        const std::string line = "digest " + what + r.digest;
        std::printf("%s\n", line.c_str());
        digest = fnv1a(line + "\n", digest);
        if (r.pgss_err) {
            pgss_err.push_back(*r.pgss_err);
            pgss_detailed += r.pgss_detailed_ops;
            periods += r.periods;
            samples += r.samples;
            phases += r.phases;
        }
        if (r.smarts_err)
            smarts_err.push_back(*r.smarts_err);
        if (r.simpoint_err)
            simpoint_err.push_back(*r.simpoint_err);
    }
    std::printf("digest_fnv1a %016llx\n",
                static_cast<unsigned long long>(digest));
    const std::size_t np = plan.programs.size();
    const bool accuracy_complete = pgss_err.size() == np &&
                                   smarts_err.size() == np &&
                                   simpoint_err.size() == np;

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"norm_pass_s", sumOfMedians(untraced), "s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peak_rss, "MiB"},
            {"pgss_err_amean", mean(pgss_err), "fraction"},
            {"pgss_err_max",
             pgss_err.empty()
                 ? 0.0
                 : *std::max_element(pgss_err.begin(), pgss_err.end()),
             "fraction"},
            {"pgss_detailed_ops", static_cast<double>(pgss_detailed),
             "ops"},
            {"smarts_err_amean", mean(smarts_err), "fraction"},
            {"simpoint_err_amean", mean(simpoint_err), "fraction"},
        };
    } else {
        sim::ModeOps pass_ops;
        for (const std::optional<OpResult> &r : first) {
            if (!r)
                continue;
            pass_ops.functional_fast += r->ops.functional_fast;
            pass_ops.functional_warm += r->ops.functional_warm;
            pass_ops.detailed_warm += r->ops.detailed_warm;
            pass_ops.detailed_measure += r->ops.detailed_measure;
        }
        std::uint64_t program_ops = 0;
        for (const analysis::IntervalProfile &t : in.truth)
            program_ops += t.totalOps();
        const auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
        };
        // A layer's seconds per timed pass; for a layer the pass does
        // not call, its seconds in the follow-up operations.
        const auto layer_s = [&](const std::string &name) {
            const auto it = pass_layers.find(name);
            if (it != pass_layers.end())
                return median(it->second);
            const auto f = followup_layers.find(name);
            return f != followup_layers.end() ? f->second : 0.0;
        };
        const double warm_ops =
            static_cast<double>(pass_ops.functional_warm);
        const double fast_ops =
            static_cast<double>(pass_ops.functional_fast);
        const double det_ops = static_cast<double>(pass_ops.detailed());
        const double traced_pass = sumOfMedians(traced);

        const Decomposition d = decompose(in);
        const WarmCounts &c = d.counts;
        using L = Level;
        metrics = {
            {"cpu.step_ns", d.at(L::Step), "ns"},
            {"bbv.hash_ns", d.at(L::Bbv) - d.at(L::Step), "ns"},
            {"mem.warm_inst_ns", d.at(L::WarmInst) - d.at(L::Bbv), "ns"},
            {"mem.warm_data_ns", d.at(L::WarmData) - d.at(L::WarmInst),
             "ns"},
            {"timing.branch_unit_ns",
             d.at(L::Branch) - d.at(L::WarmData), "ns"},
            {"timing.pipeline_ns", d.at(L::Pipeline) - d.at(L::Step),
             "ns"},
            {"sim.functional_warm_ns", d.at(L::Warm), "ns"},
            {"sim.warm_glue_ns", d.at(L::Warm) - d.at(L::Branch), "ns"},
            {"sim.detailed_ns", d.at(L::Detailed), "ns"},
            {"sim.functional_fast_ns", d.at(L::Fast), "ns"},
            {"sim.modelled_s",
             (d.at(L::Warm) * warm_ops + d.at(L::Detailed) * det_ops +
              d.at(L::Fast) * fast_ops) /
                 1e9,
             "s"},
            {"workload.build_s", median(setup_layers["workload.build"]),
             "s"},
            {"analysis.profile_load_s",
             median(setup_layers["analysis.profile_load"]), "s"},
            {"core.pgss_run_s", layer_s("core.pgss_run"), "s"},
            {"sampling.smarts_s", layer_s("sampling.smarts"), "s"},
            {"sampling.collect_bbvs_s", layer_s("sampling.collect_bbvs"),
             "s"},
            {"cluster.simpoint_s", layer_s("cluster.simpoint"), "s"},
            {"sampling.online_simpoint_s",
             layer_s("sampling.online_simpoint"), "s"},
            {"analysis.profile_build_s",
             layer_s("analysis.profile_build"), "s"},
            {"sim.ops.functional_warm", warm_ops, "ops"},
            {"sim.ops.functional_fast", fast_ops, "ops"},
            {"sim.ops.detailed", det_ops, "ops"},
            {"sim.warm_passes",
             ratio(pass_ops.functional_warm, program_ops), "ratio"},
            {"core.samples", static_cast<double>(samples), "count"},
            {"core.phases", static_cast<double>(phases), "count"},
            {"core.periods", static_cast<double>(periods), "count"},
            {"mem.l1d.miss_ratio",
             ratio(c.l1d_misses, c.l1d_hits + c.l1d_misses), "fraction"},
            {"mem.l2.miss_ratio",
             ratio(c.l2_misses, c.l2_hits + c.l2_misses), "fraction"},
            {"timing.branch.mispredict_ratio",
             ratio(c.branch_mispredicts, c.branch_lookups), "fraction"},
            {"trace.norm_pass_s", traced_pass, "s"},
            {"trace.overhead_s",
             traced_pass - sumOfMedians(untraced), "s"},
        };
    }

    bool finite = true;
    for (const Metric &m : metrics) {
        finite = finite && std::isfinite(m.value);
        std::printf("metric %-32s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    const bool correct = tally.failed == 0 && accuracy_complete &&
                         spans_complete && finite;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        if (opt.command == "prepare")
            return prepareCommand(opt);
        if (opt.command == "run")
            return runCommand(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pgss_e2e: %s\n", e.what());
        return 1;
    }
    usage("unknown command '" + opt.command + "'");
}
