#include "bench/support.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
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

/** --journal/--resume plumbing shared by every journaled stage. */
struct JournalState
{
    std::string path;   ///< "" = journaling off
    bool resume = false;
    bool loaded = false;
    std::unique_ptr<util::Journal> journal;
    std::mutex mtx; ///< append order + lazy journal open
    /** stage \x1f entry-name -> payload of recorded successes. */
    std::map<std::string, std::string> completed;
};

JournalState &
journalState()
{
    static JournalState s;
    return s;
}

std::string
journalKey(const std::string &stage, const std::string &entry)
{
    return stage + '\x1f' + entry;
}

/** Replay the journal into completed (resume runs only). */
void
loadJournalOnce()
{
    JournalState &js = journalState();
    std::lock_guard<std::mutex> lock(js.mtx);
    if (js.loaded)
        return;
    js.loaded = true;
    if (!js.resume || js.path.empty())
        return;
    std::vector<std::string> lines;
    std::size_t torn = 0;
    util::Journal::readLines(js.path, lines, &torn);
    std::size_t replayed = 0;
    for (const std::string &line : lines) {
        obs::JsonValue v;
        if (!obs::parseJson(line, v) || !v.isObject())
            continue; // foreign or damaged line: ignore, re-run
        const obs::JsonValue *stage = v.get("stage");
        const obs::JsonValue *entry = v.get("entry");
        const obs::JsonValue *ok = v.get("ok");
        const obs::JsonValue *payload = v.get("payload");
        if (!stage || !entry || !ok || !stage->isString() ||
            !entry->isString() || !ok->isBool())
            continue;
        // Error records are deliberately not replayed: a resumed run
        // retries what failed, skips only what succeeded.
        if (!ok->boolean || !payload || !payload->isString())
            continue;
        js.completed[journalKey(stage->string, entry->string)] =
            payload->string;
        ++replayed;
    }
    if (replayed > 0 || torn > 0)
        util::inform("resume: %zu completed entr%s replayed from %s%s",
                     replayed, replayed == 1 ? "y" : "ies",
                     js.path.c_str(),
                     torn ? " (torn trailing record dropped)" : "");
}

void
appendJournalRecord(const std::string &stage, const std::string &entry,
                    std::size_t index, const EntryOutcome &outcome)
{
    JournalState &js = journalState();
    if (js.path.empty())
        return;
    obs::JsonWriter w;
    w.beginObject();
    w.field("stage", stage);
    w.field("entry", entry);
    w.field("index", std::uint64_t{index});
    w.field("ok", outcome.ok);
    if (outcome.ok)
        w.field("payload", outcome.payload);
    else
        w.field("error", outcome.error);
    w.endObject();
    std::lock_guard<std::mutex> lock(js.mtx);
    if (!js.journal)
        js.journal = std::make_unique<util::Journal>(js.path);
    if (!js.journal->append(w.str()))
        util::warn("journal: could not record completion of %s/%s",
                   stage.c_str(), entry.c_str());
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
loadSuite()
{
    const std::vector<std::string> names = workload::suiteNames();
    std::vector<Entry> entries(names.size());
    // Ground-truth profile generation dominates first-run cost; each
    // entry is independent (the profile cache writes distinct files),
    // so load on the harness workers. Slot-indexed assignment keeps
    // suite order regardless of completion order.
    runEntriesParallel(names.size(), [&](std::size_t i) {
        entries[i] = loadEntry(names[i]);
    });
    return entries;
}

std::size_t
benchJobs()
{
    return util::jobCount();
}

void
runEntriesParallel(std::size_t n,
                   const std::function<void(std::size_t)> &body)
{
    // One span per entry, opened on whichever worker runs it, so the
    // Perfetto trace shows the suite fanning out across the pool.
    util::parallelFor(n, benchJobs(), [&body](std::size_t i) {
        PGSS_SPAN("bench.entry", Bench);
        body(i);
    });
}

std::vector<EntryOutcome>
runEntriesJournaled(const std::vector<Entry> &entries,
                    const std::string &stage,
                    const std::function<std::string(std::size_t)> &body)
{
    loadJournalOnce();
    JournalState &js = journalState();
    std::vector<EntryOutcome> out(entries.size());

    // Resolve journal hits up front so the parallel pass only spends
    // workers on the remaining entries.
    {
        std::lock_guard<std::mutex> lock(js.mtx);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const auto it =
                js.completed.find(journalKey(stage, entries[i].name));
            if (it == js.completed.end())
                continue;
            out[i].ok = true;
            out[i].from_journal = true;
            out[i].payload = it->second;
        }
    }

    runEntriesParallel(entries.size(), [&](std::size_t i) {
        EntryOutcome &o = out[i];
        if (o.from_journal)
            return;
        // Per-entry isolation boundary: one entry failing (injected
        // fault, resource exhaustion, workload bug) becomes an error
        // record; the rest of the suite still completes and a later
        // --resume run retries only the failures.
        try {
            o.payload = body(i);
            o.ok = true;
        } catch (const std::exception &e) {
            o.ok = false;
            o.error = e.what();
            ++util::fi::counter("bench.entry_failed");
            util::warn("entry %s failed: %s",
                       entries[i].name.c_str(), e.what());
        }
        appendJournalRecord(stage, entries[i].name, i, o);
    });
    return out;
}

bool
resumeRequested()
{
    return journalState().resume;
}

const std::string &
journalPath()
{
    return journalState().path;
}

std::string
encodeDoubles(const std::vector<double> &xs)
{
    std::string out;
    char buf[40];
    for (double x : xs) {
        if (!out.empty())
            out.push_back(' ');
        // %.17g is the shortest format guaranteed to round-trip an
        // IEEE double exactly — the byte-identical-resume contract
        // rests on it.
        std::snprintf(buf, sizeof(buf), "%.17g", x);
        out += buf;
    }
    return out;
}

bool
decodeDoubles(const std::string &payload, std::vector<double> &out)
{
    out.clear();
    const char *p = payload.c_str();
    while (*p != '\0') {
        char *end = nullptr;
        const double v = std::strtod(p, &end);
        if (end == p)
            return false;
        out.push_back(v);
        p = end;
        while (*p == ' ')
            ++p;
    }
    return true;
}

namespace
{

double
measureRate(const workload::BuiltWorkload &built, const RateSpec &spec)
{
    const auto fresh = [&] {
        auto engine = std::make_unique<sim::SimulationEngine>(
            built.program, benchConfig());
        engine->setFastPathEnabled(spec.fast_path);
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
