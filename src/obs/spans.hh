/**
 * @file
 * Span-based self-profiling: a causal view of where wall-clock goes
 * inside a run, complementing the aggregate timers of obs/perf. A
 * *span* is one timed scope — a fast-forward chunk, a detailed
 * window, a checkpoint restore, a k-means invocation, a bench entry —
 * opened and closed by an RAII guard:
 *
 *     PGSS_SPAN("engine.functional_fast", Ff);
 *     ... work ...
 *     // or PGSS_SPAN_NAMED(span, ...) + span.addOps(ops_retired)
 *
 * Records land in *per-thread* fixed-capacity ring buffers: the hot
 * path takes no locks, touches no shared cache lines, and costs two
 * monotonic clock reads plus one struct write per span. The global
 * registry (mutex-protected, first-use only) tracks every thread's
 * buffer so PGSS_JOBS workers — named by util::ThreadPool — appear as
 * separate tracks. When a ring wraps, the oldest records are
 * overwritten and the loss is accounted (dropped counter + truncation
 * marker in every sink).
 *
 * Each record carries nesting depth and parent identity (maintained
 * by a per-thread open-span stack), so the profiler can report both
 * *total* time (span open to close) and *self* time (total minus
 * enclosed child spans), plus an attached simulated-instruction count
 * from which per-span host MIPS is derived.
 *
 * Two sinks, both assembled after workers have joined (or best-effort
 * from the abnormal-exit flush):
 *
 *  - writeTraceEventJson(): Chrome/Perfetto trace_event JSON —
 *    complete "X" events on named thread tracks, loadable in
 *    ui.perfetto.dev or chrome://tracing (--profile-out=,
 *    PGSS_PROFILE_OUT).
 *  - dumpProfileJson(): the schema-versioned "profile" run-report
 *    section — flat self/total table per span name, parent->child
 *    hierarchy, per-category self time, and the measured per-span
 *    instrumentation overhead (startup calibration loop), so short
 *    spans are not misread as free (--profile, PGSS_PROFILE=1).
 *
 * Off by default: with no profiler installed a PGSS_SPAN costs one
 * relaxed atomic load and a predictable branch. See DESIGN.md
 * section 11.
 */

#ifndef PGSS_OBS_SPANS_HH
#define PGSS_OBS_SPANS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pgss::obs
{

class JsonWriter;

/** What kind of work a span covers. Values are stable schema ids. */
enum class SpanCat : std::uint8_t
{
    Ff,         ///< functional fast-forward (fast or warm)
    Detailed,   ///< detailed warm-up / measured windows
    Checkpoint, ///< checkpoint save/restore/delta-resolve
    Cluster,    ///< k-means / projection work
    Bench,      ///< harness orchestration (per-entry, controllers)
    Io,         ///< profile-cache and artefact file traffic
    Decode,     ///< instruction pre-decode (FastOp table build)
    Other,      ///< anything else
};

/** Number of SpanCat values (per-category aggregation arrays). */
constexpr int span_cat_count = static_cast<int>(SpanCat::Other) + 1;

/** Report/trace "cat" string for @p cat. */
const char *spanCatName(SpanCat cat);

/** One closed span. POD; written once by the owning thread. */
struct SpanRecord
{
    const char *name = nullptr;   ///< static string (PGSS_SPAN literal)
    const char *parent = nullptr; ///< enclosing span's name (or null)
    std::uint64_t start_ns = 0;   ///< monotonic, profiler epoch
    std::uint64_t dur_ns = 0;     ///< close - open
    std::uint64_t self_ns = 0;    ///< dur minus enclosed child spans
    std::uint64_t ops = 0;        ///< simulated instructions attached
    std::uint32_t depth = 0;      ///< nesting level at open (0 = root)
    SpanCat cat = SpanCat::Other;
};

/**
 * One thread's span storage: a fixed-capacity ring of closed records
 * plus the open-span stack that maintains depth/parent/self-time.
 * Only the owning thread writes; readers run after workers join (or
 * accept a best-effort snapshot on the abnormal-exit path).
 */
class SpanBuffer
{
  public:
    SpanBuffer(std::uint32_t tid, std::string thread_name,
               std::size_t capacity);

    /** Append a closed record, overwriting the oldest when full. */
    void push(const SpanRecord &rec);

    /** Records in completion order (oldest surviving first). */
    std::vector<SpanRecord> records() const;

    std::uint32_t tid() const { return tid_; }
    const std::string &threadName() const { return thread_name_; }
    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const { return recorded_ - kept(); }
    bool wrapped() const { return dropped() > 0; }

    /** Open-span bookkeeping (ScopedSpan only). */
    struct Frame
    {
        const char *name = nullptr;
        std::uint64_t child_ns = 0; ///< closed children's total time
    };
    std::vector<Frame> stack;

  private:
    std::uint64_t kept() const
    {
        return count_;
    }

    std::uint32_t tid_;
    std::string thread_name_;
    std::vector<SpanRecord> ring_;
    std::size_t head_ = 0;       ///< next write slot
    std::size_t count_ = 0;      ///< valid records
    std::uint64_t recorded_ = 0; ///< lifetime pushes
};

/** Profiler knobs. */
struct SpanProfilerConfig
{
    /** Ring capacity per thread (records). ~72 B each. */
    std::size_t ring_capacity = 65'536;

    /**
     * Monotonic nanosecond source; nullptr = steady clock. Tests
     * inject a deterministic counter so exported JSON is golden-file
     * stable.
     */
    std::uint64_t (*now_ns)() = nullptr;

    /**
     * Measure per-span overhead with a calibration loop at install
     * (reported as profile.overhead_ns_per_span). Off for fake
     * clocks and overhead-sensitive tests.
     */
    bool calibrate = true;
};

/**
 * The process-wide span profiler. Threads register lazily on their
 * first span (mutex-protected, once per thread); every later span is
 * lock-free. Install with setSpanProfiler(); every PGSS_SPAN is a
 * cheap no-op while no profiler is installed.
 */
class SpanProfiler
{
  public:
    /** Schema version of the "profile" report section. */
    static constexpr std::uint32_t schema_version = 1;

    explicit SpanProfiler(const SpanProfilerConfig &config = {});

    const SpanProfilerConfig &config() const { return config_; }

    /** Monotonic nanoseconds since the profiler was installed. */
    std::uint64_t nowNs() const;

    /**
     * The calling thread's buffer, registering it (named after
     * util::currentThreadName()) on first use.
     */
    SpanBuffer &threadBuffer();

    /** Measured per-span cost (0 when calibration was off). */
    double overheadNsPerSpan() const { return overhead_ns_; }

    /** Wall seconds since install (host, steady clock). */
    double wallSeconds() const;

    /** Every registered thread buffer, registration order. */
    std::vector<const SpanBuffer *> buffers() const;

    /** Lifetime records across threads (including overwritten). */
    std::uint64_t totalRecorded() const;

    /** Records lost to ring wrap across threads. */
    std::uint64_t totalDropped() const;

    /**
     * Chrome/Perfetto trace_event JSON: thread-name metadata, one
     * complete ("ph":"X") event per record with category, ops and
     * derived MIPS args, and an instant "ring-wrapped" truncation
     * marker on every thread whose ring overwrote records.
     */
    void writeTraceEventJson(std::ostream &os) const;

    /**
     * The "profile" run-report section: flat per-name self/total
     * aggregation, parent->child hierarchy, per-category self time,
     * thread accounting, and the calibrated overhead estimate.
     */
    void dumpProfileJson(JsonWriter &w) const;

  private:
    void calibrate();

    SpanProfilerConfig config_;
    std::uint64_t instance_id_ = 0; ///< thread-cache key (anti-ABA)
    std::uint64_t epoch_ns_ = 0;    ///< raw clock at install
    double overhead_ns_ = 0.0;
    mutable std::mutex mutex_;   ///< guards buffers_ registration
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/** The process-wide profiler, or nullptr when profiling is off. */
SpanProfiler *spanProfiler();

/**
 * Install (or, with nullptr, remove) the process-wide profiler. Not
 * thread-safe against concurrent spans: install before starting
 * workers, remove after joining them.
 */
void setSpanProfiler(std::unique_ptr<SpanProfiler> profiler);

/**
 * RAII span guard. Opens on construction when a profiler is
 * installed, closes (and records) on destruction. @p name must be a
 * string with static storage duration — the literal passed to
 * PGSS_SPAN — because records keep the pointer, not a copy.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, SpanCat cat);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach simulated instructions covered by this span. */
    void addOps(std::uint64_t n) { ops_ += n; }

    /** True when a profiler was installed at open. */
    bool active() const { return profiler_ != nullptr; }

  private:
    SpanProfiler *profiler_;
    SpanBuffer *buffer_ = nullptr;
    const char *name_;
    const char *parent_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t ops_ = 0;
    SpanCat cat_;
};

// Two-step expansion so __LINE__ pastes into a unique variable name.
#define PGSS_SPAN_CONCAT2(a, b) a##b
#define PGSS_SPAN_CONCAT(a, b) PGSS_SPAN_CONCAT2(a, b)

/**
 * Open a named span for the rest of the enclosing scope.
 * @p name: string literal; @p cat: bare SpanCat enumerator (Ff,
 * Detailed, Checkpoint, Cluster, Bench, Io, Decode, Other).
 */
#define PGSS_SPAN(name, cat)                                          \
    pgss::obs::ScopedSpan PGSS_SPAN_CONCAT(pgss_span_, __LINE__)(     \
        name, pgss::obs::SpanCat::cat)

/**
 * Like PGSS_SPAN but binds the guard to @p var so the scope can
 * attach instruction counts with var.addOps(n).
 */
#define PGSS_SPAN_NAMED(var, name, cat)                               \
    pgss::obs::ScopedSpan var(name, pgss::obs::SpanCat::cat)

} // namespace pgss::obs

#endif // PGSS_OBS_SPANS_HH
