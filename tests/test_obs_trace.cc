/**
 * @file
 * Tests for the trace sink: emission order, ring-buffer overwrite
 * accounting, the JSONL file format, and the global-sink lifecycle.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hh"
#include "tests/helpers.hh"

using namespace pgss::obs;

namespace
{

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
tempPath(const char *tag)
{
    return pgss::test::uniqueTempDir(std::string("pgss_trace_") + tag) +
           ".jsonl";
}

} // namespace

TEST(ObsTrace, KindNamesAreStableSchemaStrings)
{
    EXPECT_STREQ(traceKindName(TraceKind::ModeSwitch), "mode_switch");
    EXPECT_STREQ(traceKindName(TraceKind::PhaseClassified), "phase");
    EXPECT_STREQ(traceKindName(TraceKind::SampleOpen), "sample_open");
    EXPECT_STREQ(traceKindName(TraceKind::SampleClose),
                 "sample_close");
    EXPECT_STREQ(traceKindName(TraceKind::CheckpointSave),
                 "ckpt_save");
    EXPECT_STREQ(traceKindName(TraceKind::CheckpointRestore),
                 "ckpt_restore");
    EXPECT_STREQ(traceKindName(TraceKind::ThresholdAdjust),
                 "threshold");
}

TEST(ObsTrace, MemorySinkKeepsEmissionOrder)
{
    TraceSink sink("", 16);
    sink.emit(TraceKind::ModeSwitch, 100, 1);
    sink.emit(TraceKind::SampleOpen, 200);
    sink.emit(TraceKind::SampleClose, 300, 7, 0, 1.25);

    const std::vector<TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, TraceKind::ModeSwitch);
    EXPECT_EQ(events[0].op, 100u);
    EXPECT_EQ(events[0].id, 1u);
    EXPECT_EQ(events[1].kind, TraceKind::SampleOpen);
    EXPECT_EQ(events[2].kind, TraceKind::SampleClose);
    EXPECT_EQ(events[2].id, 7u);
    EXPECT_DOUBLE_EQ(events[2].value, 1.25);
    EXPECT_EQ(sink.emitted(), 3u);
    EXPECT_EQ(sink.dropped(), 0u);
    // Wall timestamps never go backwards.
    EXPECT_LE(events[0].wall, events[1].wall);
    EXPECT_LE(events[1].wall, events[2].wall);
}

TEST(ObsTrace, MemoryRingOverwritesOldestAndCountsDrops)
{
    TraceSink sink("", 4);
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.emit(TraceKind::PhaseClassified, i);

    EXPECT_EQ(sink.emitted(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    const std::vector<TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 4u);
    // The newest four survive, still in emission order.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].op, 6u + i);
}

TEST(ObsTrace, FileSinkWritesOneJsonLinePerEvent)
{
    const std::string path = tempPath("file");
    {
        TraceSink sink(path, 8);
        sink.emit(TraceKind::ModeSwitch, 5, 2);
        sink.emit(TraceKind::ThresholdAdjust, 9, 0, 0, 0.125);
        sink.flush();
        sink.emit(TraceKind::SampleOpen, 11);
    } // destructor drains the tail and appends the eof accounting line

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[0].find("\"ev\":\"mode_switch\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"op\":5"), std::string::npos);
    EXPECT_NE(lines[1].find("\"ev\":\"threshold\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("0.125"), std::string::npos);
    EXPECT_NE(lines[2].find("\"ev\":\"sample_open\""),
              std::string::npos);
    EXPECT_NE(lines[3].find("\"ev\":\"eof\""), std::string::npos);
    EXPECT_NE(lines[3].find("\"emitted\":3"), std::string::npos);
    EXPECT_NE(lines[3].find("\"dropped\":0"), std::string::npos);
    for (const std::string &line : lines) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"t\":"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(ObsTrace, FileSinkDrainsWhenBufferFills)
{
    const std::string path = tempPath("drain");
    TraceSink sink(path, 4);
    for (std::uint64_t i = 0; i < 9; ++i)
        sink.emit(TraceKind::PhaseClassified, i, 0);
    // A file-backed sink drains instead of overwriting: nothing is
    // lost even though 9 events went through a 4-slot buffer.
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_EQ(sink.emitted(), 9u);
    sink.flush();
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 9u);
    for (std::uint64_t i = 0; i < 9; ++i)
        EXPECT_NE(lines[i].find("\"op\":" + std::to_string(i)),
                  std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsTrace, GlobalSinkInstallAndRemove)
{
    ASSERT_EQ(traceSink(), nullptr);
    setTraceSink(std::make_unique<TraceSink>("", 8));
    ASSERT_NE(traceSink(), nullptr);
    traceSink()->emit(TraceKind::SampleOpen, 1);
    EXPECT_EQ(traceSink()->emitted(), 1u);
    setTraceSink(nullptr);
    EXPECT_EQ(traceSink(), nullptr);
}
