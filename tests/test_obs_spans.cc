/**
 * @file
 * Span-profiler tests: ring wrap/overflow accounting, self-vs-total
 * nesting arithmetic under an injected deterministic clock, category
 * aggregation, multi-thread interleaving under util::parallelFor (the
 * TSan job exercises this), the cheap-when-off guarantee, overhead
 * calibration, and both sinks — trace_event JSON validity plus an
 * exact golden-file comparison, and the "profile" report section.
 */

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/json_read.hh"
#include "obs/spans.hh"
#include "util/thread_pool.hh"

using pgss::obs::JsonValue;
using pgss::obs::JsonWriter;
using pgss::obs::ScopedSpan;
using pgss::obs::SpanBuffer;
using pgss::obs::SpanCat;
using pgss::obs::SpanProfiler;
using pgss::obs::SpanProfilerConfig;
using pgss::obs::SpanRecord;

namespace
{

/** Injected clock: tests advance g_fake_now between scopes. */
std::uint64_t g_fake_now = 0;

std::uint64_t
fakeNow()
{
    return g_fake_now;
}

/** Install a fresh profiler with the fake clock; return it. */
SpanProfiler *
installFakeClockProfiler(std::size_t ring_capacity = 1024)
{
    g_fake_now = 0;
    SpanProfilerConfig config;
    config.ring_capacity = ring_capacity;
    config.now_ns = fakeNow;
    config.calibrate = false;
    pgss::obs::setSpanProfiler(
        std::make_unique<SpanProfiler>(config));
    return pgss::obs::spanProfiler();
}

/** RAII uninstall so one test's profiler never leaks into the next. */
struct ProfilerGuard
{
    ~ProfilerGuard() { pgss::obs::setSpanProfiler(nullptr); }
};

/** Parse the profiler's "profile" section into a JSON document. */
JsonValue
profileDoc(const SpanProfiler &prof)
{
    JsonWriter w;
    w.beginObject();
    prof.dumpProfileJson(w);
    w.endObject();
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(pgss::obs::parseJson(w.str(), doc, &err)) << err;
    const JsonValue *p = doc.get("profile");
    EXPECT_NE(p, nullptr);
    return p ? *p : JsonValue{};
}

double
num(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.get(key);
    return v && v->isNumber() ? v->number : -1.0;
}

} // anonymous namespace

TEST(ObsSpanBuffer, RingWrapOverflowAccounting)
{
    SpanBuffer buf(0, "t", 16);
    for (std::uint64_t i = 0; i < 40; ++i) {
        SpanRecord rec;
        rec.name = "x";
        rec.start_ns = i;
        buf.push(rec);
    }
    EXPECT_EQ(buf.recorded(), 40u);
    EXPECT_EQ(buf.dropped(), 24u);
    EXPECT_TRUE(buf.wrapped());

    // Oldest surviving first: pushes 24..39 remain.
    const std::vector<SpanRecord> recs = buf.records();
    ASSERT_EQ(recs.size(), 16u);
    EXPECT_EQ(recs.front().start_ns, 24u);
    EXPECT_EQ(recs.back().start_ns, 39u);
}

TEST(ObsSpanBuffer, TinyCapacityIsClampedNotZero)
{
    SpanBuffer buf(0, "t", 0);
    for (std::uint64_t i = 0; i < 20; ++i)
        buf.push({});
    EXPECT_EQ(buf.recorded(), 20u);
    EXPECT_EQ(buf.records().size(), 16u); // floor capacity
}

TEST(ObsSpans, NestedSpansSplitSelfAndTotal)
{
    ProfilerGuard guard;
    SpanProfiler *prof = installFakeClockProfiler();

    g_fake_now = 1'000;
    {
        ScopedSpan outer("outer", SpanCat::Bench);
        g_fake_now = 2'000;
        {
            ScopedSpan inner("inner", SpanCat::Io);
            inner.addOps(500);
            g_fake_now = 2'500;
        }
        g_fake_now = 4'000;
    }

    const std::vector<SpanRecord> recs =
        prof->buffers().at(0)->records();
    ASSERT_EQ(recs.size(), 2u);
    // Children close (and record) before their parents.
    EXPECT_STREQ(recs[0].name, "inner");
    EXPECT_STREQ(recs[0].parent, "outer");
    EXPECT_EQ(recs[0].dur_ns, 500u);
    EXPECT_EQ(recs[0].self_ns, 500u);
    EXPECT_EQ(recs[0].ops, 500u);
    EXPECT_EQ(recs[0].depth, 1u);
    EXPECT_STREQ(recs[1].name, "outer");
    EXPECT_EQ(recs[1].parent, nullptr);
    EXPECT_EQ(recs[1].dur_ns, 3'000u);
    EXPECT_EQ(recs[1].self_ns, 2'500u);
    EXPECT_EQ(recs[1].depth, 0u);
}

TEST(ObsSpans, ProfileSectionAggregatesFlatTreeAndCategories)
{
    ProfilerGuard guard;
    SpanProfiler *prof = installFakeClockProfiler();

    for (int i = 0; i < 3; ++i) {
        ScopedSpan outer("outer", SpanCat::Bench);
        g_fake_now += 100;
        {
            ScopedSpan inner("inner", SpanCat::Ff);
            g_fake_now += 900;
        }
    }

    const JsonValue p = profileDoc(*prof);
    EXPECT_EQ(num(p, "schema_version"), 1.0);
    EXPECT_EQ(num(p, "spans_recorded"), 6.0);
    EXPECT_EQ(num(p, "spans_dropped"), 0.0);

    const JsonValue *flat = p.get("flat");
    ASSERT_NE(flat, nullptr);
    const JsonValue *outer = flat->get("outer");
    const JsonValue *inner = flat->get("inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(num(*outer, "calls"), 3.0);
    EXPECT_NEAR(num(*outer, "total_seconds"), 3e-6, 1e-12);
    EXPECT_NEAR(num(*outer, "self_seconds"), 0.3e-6, 1e-12);
    EXPECT_NEAR(num(*inner, "self_seconds"), 2.7e-6, 1e-12);

    // Per-category self time: bench gets outer's self, ff inner's.
    const JsonValue *cats = p.get("categories");
    ASSERT_NE(cats, nullptr);
    EXPECT_NEAR(num(*cats->get("bench"), "self_seconds"), 0.3e-6,
                1e-12);
    EXPECT_NEAR(num(*cats->get("ff"), "self_seconds"), 2.7e-6,
                1e-12);

    // The parent->child edge table carries the hierarchy.
    const JsonValue *tree = p.get("tree");
    ASSERT_NE(tree, nullptr);
    ASSERT_EQ(tree->array.size(), 2u);
    bool saw_edge = false;
    for (const JsonValue &edge : tree->array)
        if (edge.get("parent")->string == "outer" &&
            edge.get("name")->string == "inner")
            saw_edge = true;
    EXPECT_TRUE(saw_edge);
}

TEST(ObsSpans, MultiThreadSpansLandInPerThreadBuffers)
{
    ProfilerGuard guard;
    SpanProfilerConfig config; // real clock: worker threads run live
    pgss::obs::setSpanProfiler(
        std::make_unique<SpanProfiler>(config));
    SpanProfiler *prof = pgss::obs::spanProfiler();

    constexpr std::size_t kWorkers = 4;
    constexpr std::size_t kSpansPer = 16;
    std::atomic<std::size_t> started{0};
    pgss::util::parallelFor(kWorkers, kWorkers, [&started](std::size_t) {
        // Hold every thread inside its body until all four have one:
        // no thread takes two bodies, each records spans, so the
        // buffer count below is deterministic.
        ++started;
        while (started.load() < kWorkers) {
        }
        for (std::size_t i = 0; i < kSpansPer; ++i) {
            ScopedSpan span("worker.task", SpanCat::Bench);
            span.addOps(10);
        }
    });

    // Workers joined: every task recorded exactly once, the per-
    // thread sums reconcile, and each pool thread kept its own name.
    constexpr std::size_t kTasks = kWorkers * kSpansPer;
    EXPECT_EQ(prof->totalRecorded(), kTasks);
    EXPECT_EQ(prof->totalDropped(), 0u);
    std::uint64_t sum = 0;
    for (const SpanBuffer *b : prof->buffers()) {
        sum += b->recorded();
        EXPECT_NE(b->threadName().find("pool-"), std::string::npos);
    }
    EXPECT_EQ(sum, kTasks);
    EXPECT_EQ(prof->buffers().size(), kWorkers);

    // The exported trace parses and names every thread track.
    std::ostringstream os;
    prof->writeTraceEventJson(os);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(pgss::obs::parseJson(os.str(), doc, &err)) << err;
    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t meta = 0, complete = 0;
    for (const JsonValue &ev : events->array) {
        const std::string ph = ev.get("ph")->string;
        meta += ph == "M";
        complete += ph == "X";
    }
    EXPECT_EQ(meta, prof->buffers().size());
    EXPECT_EQ(complete, kTasks);
}

TEST(ObsSpans, ReinstalledProfilerGetsFreshThreadBuffers)
{
    ProfilerGuard guard;
    installFakeClockProfiler();
    { ScopedSpan s("first", SpanCat::Other); }

    // A second profiler may land at the same address; the instance id
    // in the thread cache must force re-registration, not aliasing.
    SpanProfiler *second = installFakeClockProfiler();
    { ScopedSpan s("second", SpanCat::Other); }
    ASSERT_EQ(second->buffers().size(), 1u);
    const std::vector<SpanRecord> recs =
        second->buffers().at(0)->records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_STREQ(recs[0].name, "second");
}

TEST(ObsSpans, DisabledSpansAreInertAndSafe)
{
    pgss::obs::setSpanProfiler(nullptr);
    ScopedSpan span("off", SpanCat::Other);
    EXPECT_FALSE(span.active());
    span.addOps(123); // must not crash or allocate a buffer
}

TEST(ObsSpans, CalibrationMeasuresPlausibleOverhead)
{
    ProfilerGuard guard;
    pgss::obs::setSpanProfiler(std::make_unique<SpanProfiler>());
    const double ns = pgss::obs::spanProfiler()->overheadNsPerSpan();
    EXPECT_GT(ns, 0.0);
    EXPECT_LT(ns, 100'000.0); // 100us/span would mean a broken clock
}

TEST(ObsSpans, TraceEventJsonMatchesGolden)
{
    ProfilerGuard guard;
    SpanProfiler *prof = installFakeClockProfiler();

    g_fake_now = 1'000;
    {
        ScopedSpan outer("outer", SpanCat::Bench);
        g_fake_now = 2'000;
        {
            PGSS_SPAN_NAMED(inner, "inner", Io);
            inner.addOps(500);
            g_fake_now = 2'500;
        }
        g_fake_now = 4'000;
    }

    std::ostringstream os;
    prof->writeTraceEventJson(os);

    std::ifstream golden(std::string(PGSS_TEST_DATA_DIR) +
                         "/golden_trace_events.json");
    ASSERT_TRUE(golden.is_open());
    std::ostringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(os.str(), want.str());
}

TEST(ObsSpans, RingWrapEmitsTruncationMarker)
{
    ProfilerGuard guard;
    SpanProfiler *prof = installFakeClockProfiler(16);

    for (int i = 0; i < 40; ++i) {
        ScopedSpan span("tick", SpanCat::Other);
        g_fake_now += 10;
    }

    std::ostringstream os;
    prof->writeTraceEventJson(os);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(pgss::obs::parseJson(os.str(), doc, &err)) << err;
    bool saw_marker = false;
    for (const JsonValue &ev : doc.get("traceEvents")->array) {
        if (ev.get("ph")->string != "i")
            continue;
        saw_marker = true;
        EXPECT_EQ(ev.get("name")->string, "ring-wrapped");
        EXPECT_EQ(ev.get("args")->get("dropped")->asUint(), 24u);
    }
    EXPECT_TRUE(saw_marker);

    // The profile section flags the same truncation.
    const JsonValue p = profileDoc(*prof);
    EXPECT_EQ(num(p, "spans_dropped"), 24.0);
    const JsonValue *truncated = p.get("truncated");
    ASSERT_NE(truncated, nullptr);
    EXPECT_TRUE(truncated->boolean);
}
