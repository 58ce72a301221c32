#include "bench/support.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "analysis/profile_cache.hh"
#include "obs/json.hh"
#include "obs/json_read.hh"
#include "obs/report.hh"
#include "obs/spans.hh"
#include "util/env.hh"
#include "util/fi.hh"
#include "util/journal.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pgss::bench
{

namespace
{

/** --journal/--resume settings, read by runSuite() at each call. */
struct JournalState
{
    std::string path; ///< "" = journaling off
    bool resume = false;
    bool used = false; ///< runSuite() was called
};

JournalState &
journalState()
{
    static JournalState s;
    return s;
}

/**
 * %.17g is the shortest format guaranteed to round-trip an IEEE
 * double exactly; byte-identical resumes rest on it.
 */
std::string
encodeRow(const std::vector<double> &xs)
{
    std::string out;
    char buf[40];
    for (double x : xs) {
        if (!out.empty())
            out.push_back(' ');
        std::snprintf(buf, sizeof(buf), "%.17g", x);
        out += buf;
    }
    return out;
}

/** The doubles of @p text, or nullopt when any token is not one. */
std::optional<std::vector<double>>
decodeRow(const std::string &text)
{
    std::vector<double> out;
    const char *p = text.c_str();
    while (*p != '\0') {
        char *end = nullptr;
        const double v = std::strtod(p, &end);
        if (end == p)
            return std::nullopt;
        out.push_back(v);
        p = end;
        while (*p == ' ')
            ++p;
    }
    return out;
}

/**
 * Fill rows[i] for every entry of @p entries that has a usable record
 * of @p stage at scale @p scale in the journal at @p path. Error
 * records are skipped, so a resume retries what failed; a damaged or
 * other-scale record is skipped with one warning per entry left
 * without a row.
 */
void
replayJournal(const std::string &path, const std::vector<Entry> &entries,
              const std::string &stage, const std::string &scale,
              std::size_t width, std::vector<std::vector<double>> &rows)
{
    std::vector<std::string> lines;
    std::size_t torn = 0;
    util::Journal::readLines(path, lines, &torn);
    std::vector<std::string> rejected(entries.size());
    for (const std::string &line : lines) {
        obs::JsonValue v;
        if (!obs::parseJson(line, v) || !v.isObject())
            continue; // foreign or damaged line: its entry re-runs
        const obs::JsonValue *st = v.get("stage");
        const obs::JsonValue *name = v.get("entry");
        const obs::JsonValue *ok = v.get("ok");
        if (!st || !name || !ok || !st->isString() ||
            !name->isString() || !ok->isBool() || st->string != stage)
            continue;
        const auto it = std::find_if(
            entries.begin(), entries.end(),
            [&](const Entry &e) { return e.name == name->string; });
        if (it == entries.end() || !ok->boolean)
            continue;
        const std::size_t i = it - entries.begin();
        const obs::JsonValue *sc = v.get("scale");
        const obs::JsonValue *row = v.get("row");
        if (!sc || !sc->isString() || sc->string != scale) {
            if (rejected[i].empty()) // a damaged record says more
                rejected[i] = "it was recorded at another workload scale";
            continue;
        }
        std::optional<std::vector<double>> xs;
        if (row && row->isString())
            xs = decodeRow(row->string);
        if (!xs || xs->size() != width) {
            rejected[i] = "its record does not hold " +
                          std::to_string(width) + " numbers";
            continue;
        }
        rows[i] = std::move(*xs);
    }
    std::size_t replayed = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!rows[i].empty())
            ++replayed;
        else if (!rejected[i].empty())
            util::warn("resume: %s/%s re-runs: %s", stage.c_str(),
                       entries[i].name.c_str(), rejected[i].c_str());
    }
    if (replayed > 0 || torn > 0)
        util::inform("resume: %zu completed entr%s replayed from %s%s",
                     replayed, replayed == 1 ? "y" : "ies",
                     path.c_str(),
                     torn ? " (torn trailing record dropped)" : "");
}

} // anonymous namespace

void
init(int &argc, char **argv, const std::string &figure_id)
{
    obs::initFromCli(argc, argv, figure_id);

    // Journal flags ride the same strip-from-argv convention as the
    // obs flags (env fallback, explicit flag wins).
    JournalState &js = journalState();
    js.path = util::envString("PGSS_JOURNAL", "");
    js.resume = util::envString("PGSS_RESUME", "") == "1";
    js.used = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--journal=", 10) == 0) {
            js.path = arg + 10;
        } else if (std::strcmp(arg, "--resume") == 0) {
            js.resume = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (js.resume && js.path.empty())
        util::warn("--resume has no effect without --journal=<path> "
                   "(or PGSS_JOURNAL)");

    obs::setReportMeta("workload_scale", benchScale());
}

void
finish()
{
    const JournalState &js = journalState();
    if (!js.path.empty() && !js.used)
        util::warn("journal %s unused: this bench runs no suite entries "
                   "through it (fig11, fig12, fig13 and the ablation do)",
                   js.path.c_str());
    obs::finalize();
}

double
benchScale()
{
    return util::workloadScale();
}

const sim::EngineConfig &
benchConfig()
{
    static const sim::EngineConfig config; // the paper's machine
    return config;
}

Entry
loadEntry(const std::string &name)
{
    PGSS_SPAN("bench.load_entry", Io);
    Entry e;
    e.name = name;
    const std::size_t dot = name.find('.');
    e.short_name =
        dot == std::string::npos ? name : name.substr(dot + 1);
    e.built = workload::buildWorkload(name, benchScale());
    analysis::ProfileCache cache;
    e.profile =
        cache.loadOrBuild(e.built.program, benchConfig(), 100'000);
    return e;
}

std::vector<Entry>
loadSuite(const std::vector<std::string> &names)
{
    std::vector<Entry> entries(names.size());
    // Ground-truth profile generation dominates first-run cost; each
    // entry is independent (the profile cache writes distinct files),
    // so load on the harness workers. Slot-indexed assignment keeps
    // the order of names regardless of completion order.
    util::parallelFor(names.size(), util::jobCount(), [&](std::size_t i) {
        entries[i] = loadEntry(names[i]);
    });
    return entries;
}

std::vector<std::vector<double>>
runSuite(const std::vector<Entry> &entries, const std::string &stage,
         std::size_t width,
         const std::function<std::vector<double>(std::size_t)> &body)
{
    JournalState &js = journalState();
    js.used = true;
    const std::string scale = encodeRow({benchScale()});

    std::vector<std::vector<double>> rows(entries.size());
    if (js.resume && !js.path.empty())
        replayJournal(js.path, entries, stage, scale, width, rows);

    std::optional<util::Journal> journal;
    if (!js.path.empty())
        journal.emplace(js.path);
    std::mutex append_mtx;

    // One span per entry, opened on whichever worker runs it, so the
    // Perfetto trace shows the suite fanning out across the workers.
    util::parallelFor(entries.size(), util::jobCount(), [&](std::size_t i) {
        if (!rows[i].empty())
            return; // replayed
        PGSS_SPAN("bench.entry", Bench);
        const std::string &name = entries[i].name;
        std::string error;
        // Per-entry isolation boundary: one entry failing (injected
        // fault, resource exhaustion, workload bug) becomes an error
        // record; the rest of the suite still completes and a later
        // --resume run retries only the failures.
        try {
            std::vector<double> row = body(i);
            if (row.size() != width)
                throw std::length_error(
                    "row of " + std::to_string(row.size()) +
                    " numbers, expected " + std::to_string(width));
            rows[i] = std::move(row);
        } catch (const std::exception &e) {
            error = e.what();
            ++util::fi::counter("bench.entry_failed");
            util::warn("entry %s failed: %s", name.c_str(), e.what());
        }
        if (!journal)
            return;
        obs::JsonWriter w;
        w.beginObject();
        w.field("stage", stage);
        w.field("entry", name);
        w.field("scale", scale);
        w.field("ok", error.empty());
        if (error.empty())
            w.field("row", encodeRow(rows[i]));
        else
            w.field("error", error);
        w.endObject();
        std::lock_guard<std::mutex> lock(append_mtx);
        if (!journal->append(w.str()))
            util::warn("journal: could not record completion of %s/%s",
                       stage.c_str(), name.c_str());
    });
    return rows;
}

namespace
{

double
measureRate(const workload::BuiltWorkload &built, const RateSpec &spec)
{
    const auto fresh = [&] {
        auto engine = std::make_unique<sim::SimulationEngine>(
            built.program, benchConfig());
        engine->setHashedBbvEnabled(spec.bbv);
        return engine;
    };
    std::unique_ptr<sim::SimulationEngine> engine = fresh();
    const auto chunk = [&](std::uint64_t n) {
        if (engine->halted())
            engine = fresh();
        const std::uint64_t done = engine->run(n, spec.mode).ops;
        if (spec.bbv)
            engine->harvestHashedBbv();
        return done;
    };

    chunk(200'000);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ops = 0;
    while (ops < 4'000'000)
        ops += chunk(100'000);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return static_cast<double>(ops) / secs;
}

} // anonymous namespace

std::vector<std::vector<double>>
measureRates(const workload::BuiltWorkload &built,
             const std::vector<RateSpec> &specs, int reps)
{
    std::vector<std::vector<double>> rates(specs.size());
    for (int r = 0; r < reps; ++r)
        for (std::size_t i = 0; i < specs.size(); ++i)
            rates[i].push_back(measureRate(built, specs[i]));
    return rates;
}

void
printHeader(const std::string &figure, const std::string &note)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s\n", figure.c_str());
    std::printf("%s\n", note.c_str());
    std::printf("workload scale: %.3g (override with PGSS_SCALE; "
                "1.0 = ~10^8-op analogues)\n",
                benchScale());
    std::printf("================================================="
                "=============\n");
}

double
geoMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(std::max(x, 1e-12));
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace pgss::bench
