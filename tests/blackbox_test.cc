// The black box under test: wire format round-trips and rejects, wait-free
// ring behaviour, rotation/retention, fsync barriers, the reader over a
// torn or corrupted history, time travel, and the /obs/history and
// /obs/flight faces. Exhaustive frame fuzzing, reopen repair and
// crash-mid-append under the chaos seeds run for both segment-log codecs
// in segment_log_test.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "adapt/metrics.h"
#include "common/json.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "obs/alloc_hook.h"
#include "obs/blackbox/format.h"
#include "obs/blackbox/log.h"
#include "obs/blackbox/reader.h"
#include "obs/blackbox/record.h"
#include "obs/health.h"
#include "obs/observatory.h"
#include "obs/profile.h"
#include "obs/tracectx.h"

namespace dbm::obs::blackbox {
namespace {

// Every test starts from a clean injector: the chaos CI runs this binary
// with obs.blackbox.write:crash armed process-wide, and none of these
// tests wants its log to die (the crash tests live in segment_log_test).
class BlackboxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
    dir_ = std::filesystem::temp_directory_path() /
           ("blackbox_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            ".telem");
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    fault::Injector::Default().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir() const { return dir_.string(); }

  /// A manual-drain log: deterministic tests poll explicitly.
  TelemetryLogOptions ManualOptions() const {
    TelemetryLogOptions o;
    o.dir = dir();
    o.start_flusher = false;
    return o;
  }

  static TelemetryRecord MakeRecord(RecordKind kind, int64_t at_us,
                                    double a = 0) {
    TelemetryRecord rec;
    rec.kind = static_cast<uint8_t>(kind);
    rec.at_us = at_us;
    rec.a = a;
    rec.SetName("unit.test");
    return rec;
  }

  std::filesystem::path dir_;
};

TEST_F(BlackboxTest, FrameRoundTripsEveryKindAndField) {
  TelemetryRecord in;
  in.kind = static_cast<uint8_t>(RecordKind::kDecision);
  in.trace_id = TraceId{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  in.at_us = 1234567;
  in.a = 455;
  in.b = -2.5;
  in.c = 1e-9;
  in.d = 3.14159;
  in.SetName("processor-util");
  in.SetText("455: WHEN util > 0.9 SWITCH");
  in.SetExtra("SWITCH -> node2");

  std::string buf;
  EncodeFrame(in, &buf);
  TelemetryRecord out;
  size_t frame_bytes = 0;
  ASSERT_TRUE(DecodeFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                          buf.size(), &out, &frame_bytes));
  EXPECT_EQ(frame_bytes, buf.size());
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.trace_id.hi, in.trace_id.hi);
  EXPECT_EQ(out.trace_id.lo, in.trace_id.lo);
  EXPECT_EQ(out.at_us, in.at_us);
  EXPECT_DOUBLE_EQ(out.a, in.a);
  EXPECT_DOUBLE_EQ(out.b, in.b);
  EXPECT_DOUBLE_EQ(out.c, in.c);
  EXPECT_DOUBLE_EQ(out.d, in.d);
  EXPECT_STREQ(out.name, in.name);
  EXPECT_STREQ(out.text, in.text);
  EXPECT_STREQ(out.extra, in.extra);

  // Every kind encodes and names itself.
  for (uint8_t k = 0; k <= 4; ++k) {
    TelemetryRecord rec = MakeRecord(static_cast<RecordKind>(k), k);
    std::string frame;
    EncodeFrame(rec, &frame);
    TelemetryRecord back;
    size_t fb = 0;
    ASSERT_TRUE(DecodeFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                            frame.size(), &back, &fb));
    EXPECT_EQ(back.kind, k);
    EXPECT_STRNE(RecordKindName(static_cast<RecordKind>(k)), "?");
  }
}

TEST_F(BlackboxTest, DecodeRejectsTornAndCorruptFrames) {
  TelemetryRecord rec = MakeRecord(RecordKind::kMetric, 1, 42);
  std::string buf;
  EncodeFrame(rec, &buf);
  TelemetryRecord out;
  size_t fb = 0;
  const auto* data = reinterpret_cast<const uint8_t*>(buf.data());

  // Torn: any strict prefix fails.
  EXPECT_FALSE(DecodeFrame(data, buf.size() - 1, &out, &fb));
  EXPECT_FALSE(DecodeFrame(data, fault::kFrameHeaderBytes - 1, &out, &fb));
  EXPECT_FALSE(DecodeFrame(data, 0, &out, &fb));

  // Corrupt payload byte: CRC catches it.
  std::string flipped = buf;
  flipped[fault::kFrameHeaderBytes + 3] ^= 0x40;
  EXPECT_FALSE(DecodeFrame(reinterpret_cast<const uint8_t*>(flipped.data()),
                           flipped.size(), &out, &fb));

  // Absurd length prefix: rejected before any read past the buffer.
  std::string absurd = buf;
  absurd[0] = static_cast<char>(0xff);
  absurd[1] = static_cast<char>(0xff);
  EXPECT_FALSE(DecodeFrame(reinterpret_cast<const uint8_t*>(absurd.data()),
                           absurd.size(), &out, &fb));
}

TEST_F(BlackboxTest, AppendPollFlushReadBackInOrder) {
  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 100; ++i) {
    EXPECT_TRUE((*log)->Append(MakeRecord(RecordKind::kMetric, i, i * 2.0)));
  }
  EXPECT_EQ((*log)->Poll(), 100u);
  ASSERT_TRUE((*log)->Flush().ok());
  TelemetryLogStats s = (*log)->stats();
  EXPECT_EQ(s.appended, 100u);
  EXPECT_EQ(s.flushed, 100u);
  EXPECT_EQ(s.durable, 100u);  // Flush fsyncs: the barrier catches up
  EXPECT_EQ(s.dropped, 0u);

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->report().truncated);
  ASSERT_EQ(reader->records().size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(reader->records()[i].at_us, i + 1);
    EXPECT_DOUBLE_EQ(reader->records()[i].a, (i + 1) * 2.0);
  }
  EXPECT_EQ(reader->LastAtUs(), 100);
  EXPECT_EQ(reader->Between(10, 20).size(), 11u);
}

TEST_F(BlackboxTest, RotationSealsSegmentsAndRetentionDeletesOldest) {
  TelemetryLogOptions o = ManualOptions();
  o.segment_bytes = 2048;  // a few records per segment
  o.max_segments = 3;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 500; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kSpan, i));
    if (i % 16 == 0) (*log)->Poll();
  }
  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());
  TelemetryLogStats s = (*log)->stats();
  EXPECT_GT(s.segments_created, 3u);
  EXPECT_LE(s.segments_live, 3u);

  // On-disk files match the live set exactly (retention really unlinks).
  size_t on_disk = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir())) {
    (void)e;
    ++on_disk;
  }
  EXPECT_EQ(on_disk, s.segments_live);

  // The reader sees a contiguous tail of the history ending at 500.
  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  ASSERT_FALSE(reader->records().empty());
  EXPECT_LT(reader->records().size(), 500u);  // oldest rotated away
  int64_t first = reader->records().front().at_us;
  for (size_t i = 0; i < reader->records().size(); ++i) {
    EXPECT_EQ(reader->records()[i].at_us, first + static_cast<int64_t>(i));
  }
  EXPECT_EQ(reader->LastAtUs(), 500);
}

TEST_F(BlackboxTest, MetricSamplingKeepsOneInN) {
  TelemetryLogOptions o = ManualOptions();
  o.metric_sample_every = 4;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 100; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kMetric, i));
  }
  // Non-metric kinds are never sampled out.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*log)->Append(MakeRecord(RecordKind::kDecision, 1000 + i)));
  }
  TelemetryLogStats s = (*log)->stats();
  EXPECT_EQ(s.appended, 25u + 10u);  // every 4th metric + all decisions
  EXPECT_EQ(s.sampled_out, 75u);
}

TEST_F(BlackboxTest, FullRingCountsDroppedAndNeverBlocks) {
  TelemetryLogOptions o = ManualOptions();
  o.ring_capacity = 8;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 100; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kFault, i));
  }
  TelemetryLogStats s = (*log)->stats();
  EXPECT_EQ(s.appended, 8u);
  EXPECT_EQ(s.dropped, 92u);
  EXPECT_EQ((*log)->Poll(), 8u);
  EXPECT_DOUBLE_EQ((*log)->BacklogFraction(), 0.0);

  // The ring is reusable after a drain; the survivors are the first 8.
  ASSERT_TRUE((*log)->Flush().ok());
  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->records().size(), 8u);
  EXPECT_EQ(reader->records().back().at_us, 8);
}

TEST_F(BlackboxTest, AppendPathIsAllocationFree) {
  InstallCountingAllocator();
  ASSERT_TRUE(AllocCountingInstalled());
  TelemetryLogOptions o = ManualOptions();
  o.ring_capacity = 1 << 12;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  TelemetryRecord rec = MakeRecord(RecordKind::kMetric, 1, 1.0);
  (*log)->Append(rec);  // warm any lazy state
  uint64_t before = AllocCount();
  for (int i = 0; i < 2000; ++i) {
    rec.at_us = i;
    (*log)->Append(rec);
  }
  EXPECT_EQ(AllocCount() - before, 0u)
      << "the hot append path must not allocate";
}

TEST_F(BlackboxTest, FsyncPolicyNeverOnlySyncsOnExplicitFlush) {
  TelemetryLogOptions o = ManualOptions();
  o.fsync = FsyncPolicy::kNever;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 50; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kMetric, i));
  }
  (*log)->Poll();
  TelemetryLogStats s = (*log)->stats();
  EXPECT_EQ(s.flushed, 50u);
  EXPECT_EQ(s.fsyncs, 0u);
  EXPECT_EQ(s.durable, 0u);  // nothing behind the barrier yet
  ASSERT_TRUE((*log)->Flush().ok());
  s = (*log)->stats();
  EXPECT_EQ(s.fsyncs, 1u);
  EXPECT_EQ(s.durable, 50u);
}

TEST_F(BlackboxTest, FsyncPolicyIntervalAdvancesBarrierByBytes) {
  TelemetryLogOptions o = ManualOptions();
  o.fsync = FsyncPolicy::kInterval;
  o.fsync_interval_bytes = 1024;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 200; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kMetric, i));
  }
  (*log)->Poll();
  TelemetryLogStats s = (*log)->stats();
  EXPECT_GT(s.fsyncs, 1u);
  EXPECT_GT(s.durable, 0u);
  EXPECT_LE(s.durable, s.flushed);
}

// The shared suite appends and polls one record at a time; these two
// write through Poll batches and read back through the reader's own
// accessors.
TEST_F(BlackboxTest, ReaderTruncatesAtManuallyTornTail) {
  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 20; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kProfile, i));
  }
  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());
  std::string last = (*log)->SegmentPaths().back();
  (*log)->Stop();

  // Simulate a kill -9 mid-append: half of a valid frame at the tail.
  std::string frame;
  EncodeFrame(MakeRecord(RecordKind::kProfile, 21), &frame);
  {
    std::ofstream f(last, std::ios::binary | std::ios::app);
    f.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->report().truncated);
  EXPECT_EQ(reader->report().truncated_segment, last);
  ASSERT_EQ(reader->records().size(), 20u);  // the prefix, exactly
  EXPECT_EQ(reader->LastAtUs(), 20);
}

TEST_F(BlackboxTest, CorruptionMidHistoryStopsTheWholeScan) {
  TelemetryLogOptions o = ManualOptions();
  o.segment_bytes = 2048;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 200; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kSpan, i));
    if (i % 8 == 0) (*log)->Poll();
  }
  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());
  auto segments = (*log)->SegmentPaths();
  ASSERT_GE(segments.size(), 3u);
  (*log)->Stop();

  // Flip one byte in the middle of the FIRST segment: everything after
  // it — later frames in that segment AND all later segments — is
  // untrusted and must be dropped.
  {
    std::fstream f(segments.front(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    auto size = static_cast<int64_t>(f.tellg());
    f.seekp(size / 2);
    char b = 0;
    f.seekg(size / 2);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(size / 2);
    f.write(&b, 1);
  }

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->report().truncated);
  EXPECT_EQ(reader->report().truncated_segment, segments.front());
  EXPECT_EQ(reader->report().segments_scanned, 1u);
  EXPECT_LT(reader->records().size(), 200u);
  // Whatever survives is still the exact prefix.
  for (size_t i = 0; i < reader->records().size(); ++i) {
    EXPECT_EQ(reader->records()[i].at_us, static_cast<int64_t>(i + 1));
  }
}

TEST_F(BlackboxTest, InstalledSinkCapturesBusFaultAndProfileTaps) {
  TelemetryLogOptions o = ManualOptions();
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  (*log)->Install();
  ASSERT_EQ(TelemetryLog::Installed(), log->get());

  adapt::MetricBus bus;
  bus.Publish("processor-util", 0.93, 1000);
  bus.Publish("processor-util", 0.95, 2000);
  fault::Record(fault::FaultEventKind::kInjected, "unit.point", "detail",
                3000);
  RequestProfile prof;
  prof.at_us = 4000;
  prof.total_us = 70;
  prof.served = true;
  prof.SetResource("/Page1.html");
  ProfilePlane::Default().RecordRequest(prof);

  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());
  (*log)->Uninstall();
  EXPECT_EQ(TelemetryLog::Installed(), nullptr);

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  int metrics = 0, faults = 0, profiles = 0;
  for (const auto& rec : reader->records()) {
    switch (static_cast<RecordKind>(rec.kind)) {
      case RecordKind::kMetric:
        ++metrics;
        EXPECT_STREQ(rec.name, "processor-util");
        break;
      case RecordKind::kFault:
        if (std::string(rec.name) == "unit.point") ++faults;
        break;
      case RecordKind::kProfile:
        ++profiles;
        EXPECT_STREQ(rec.name, "/Page1.html");
        EXPECT_DOUBLE_EQ(rec.d, 70);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(metrics, 2);
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(profiles, 1);
}

TEST_F(BlackboxTest, TracerEmitTapsSpansAndDecisions) {
  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  (*log)->Install();

  SpanRecord span;
  span.span_id = 7;
  span.sim_begin = 100;
  span.sim_dur = 25;
  span.SetName("serve.request");
  Tracer::Default().Emit(span);

  DecisionRecord decision;
  decision.constraint_id = 455;
  decision.at_sim_us = 150;
  decision.SetSubject("processor-util");
  decision.SetRule("455: WHEN util > 0.9 SWITCH");
  decision.SetAction("SWITCH -> node2");
  Tracer::Default().Emit(decision);

  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());
  (*log)->Uninstall();

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  int spans = 0, decisions = 0;
  for (const auto& rec : reader->records()) {
    if (rec.kind == static_cast<uint8_t>(RecordKind::kSpan)) {
      ++spans;
      EXPECT_STREQ(rec.name, "serve.request");
      EXPECT_DOUBLE_EQ(rec.a, 7);
      EXPECT_DOUBLE_EQ(rec.c, 25);
    }
    if (rec.kind == static_cast<uint8_t>(RecordKind::kDecision)) {
      ++decisions;
      EXPECT_DOUBLE_EQ(rec.a, 455);
      EXPECT_STREQ(rec.extra, "SWITCH -> node2");
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(decisions, 1);
}

TEST_F(BlackboxTest, GaugesAsOfTimeTravels) {
  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  auto publish = [&](const char* name, int64_t at, double v) {
    TelemetryRecord rec = MakeRecord(RecordKind::kMetric, at, v);
    rec.SetName(name);
    (*log)->Append(rec);
  };
  publish("util", 10, 0.1);
  publish("util", 20, 0.5);
  publish("util", 30, 0.9);
  publish("sessions", 15, 64);
  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  auto at25 = reader->GaugesAsOf(25);
  EXPECT_DOUBLE_EQ(at25.at("util"), 0.5);  // not yet 0.9
  EXPECT_DOUBLE_EQ(at25.at("sessions"), 64);
  auto at5 = reader->GaugesAsOf(5);
  EXPECT_TRUE(at5.empty());
  auto now = reader->GaugesAsOf(reader->LastAtUs());
  EXPECT_DOUBLE_EQ(now.at("util"), 0.9);
}

TEST_F(BlackboxTest, HistoryRelationsAnswerObservatoryQueries) {
  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 5; ++i) {
    TelemetryRecord rec = MakeRecord(RecordKind::kDecision, i * 1000, 455);
    rec.SetName("processor-util");
    rec.SetExtra("SWITCH");
    (*log)->Append(rec);
    (*log)->Append(MakeRecord(RecordKind::kMetric, i * 1000, i * 0.1));
  }
  (*log)->Poll();
  ASSERT_TRUE((*log)->Flush().ok());

  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  std::map<std::string, size_t> row_counts;
  for (const Table& table : HistoryTables(*reader)) {
    row_counts[table.name] = ToRelation(table).rows().size();
  }
  EXPECT_EQ(row_counts["history.decisions"], 5u);
  EXPECT_EQ(row_counts["history.metrics"], 5u);
  EXPECT_EQ(row_counts["history.spans"], 0u);

  auto body = ObservatoryQuery(
      "history.decisions where at_us <= 3000 limit 10", &*reader);
  ASSERT_TRUE(body.ok()) << body.status();
  auto doc = ParseJson(*body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* rows = doc->Find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->array.size(), 3u);

  auto bad = ObservatoryQuery("history.nope", &*reader);
  EXPECT_FALSE(bad.ok());
}

TEST_F(BlackboxTest, HistoryEndpointServesJsonPromAndCollapsed) {
  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  (*log)->Install();
  TelemetryRecord metric = MakeRecord(RecordKind::kMetric, 500, 0.75);
  metric.SetName("processor-util");
  (*log)->Append(metric);
  (*log)->Append(MakeRecord(RecordKind::kDecision, 900, 455));

  // No explicit reader: the endpoint flushes the *installed* log and
  // reads its directory — live time travel.
  auto json = ServeObservatory("/obs/history?fmt=json", 1000);
  ASSERT_TRUE(json.ok()) << json.status();
  auto doc = ParseJson(*json);
  ASSERT_TRUE(doc.ok()) << *json;
  const JsonValue* history = doc->Find("history");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->Find("records_recovered")->NumberOr(0), 2);
  EXPECT_EQ(history->Find("truncated")->kind, JsonValue::Kind::kBool);

  auto prom = ServeObservatory("/obs/history?fmt=prom", 1000);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("history_bus_processor_util"), std::string::npos);

  auto collapsed = ServeObservatory("/obs/history?fmt=collapsed", 1000);
  ASSERT_TRUE(collapsed.ok());
  EXPECT_NE(collapsed->find("decision"), std::string::npos);

  auto bad = ServeObservatory("/obs/history?fmt=xml", 1000);
  EXPECT_FALSE(bad.ok());

  // Numeric parameters parse whole; limit=-1 must not wrap to SIZE_MAX.
  for (const char* path : {"/obs/history?from=abc", "/obs/history?to=5x",
                           "/obs/history?limit=-1", "/obs/history?limit=3x"}) {
    EXPECT_TRUE(ServeObservatory(path, 1000).status().IsInvalidArgument())
        << path;
  }
  auto one = ServeObservatory("/obs/history?fmt=json&limit=1", 1000);
  ASSERT_TRUE(one.ok()) << one.status();
  auto one_doc = ParseJson(*one);
  ASSERT_TRUE(one_doc.ok()) << *one;
  EXPECT_EQ(one_doc->Find("history")->Find("records")->array.size(), 1u);

  // Time-range filter: from= past the decision leaves only nothing.
  auto empty = ServeObservatory("/obs/history?fmt=json&from=5000", 9000);
  ASSERT_TRUE(empty.ok());
  auto edoc = ParseJson(*empty);
  ASSERT_TRUE(edoc.ok());
  EXPECT_EQ(edoc->Find("history")->Find("records")->array.size(), 0u);

  (*log)->Uninstall();
}

TEST_F(BlackboxTest, HistoryEndpointWithoutAnySourceIsNotFound) {
  ASSERT_EQ(TelemetryLog::Installed(), nullptr);
  auto body = ServeObservatory("/obs/history", 1000);
  EXPECT_FALSE(body.ok());
}

TEST_F(BlackboxTest, OnDemandFlightDumpCarriesBlackboxSection) {
  std::string dump =
      (std::filesystem::temp_directory_path() / "blackbox_flight.json")
          .string();
  std::filesystem::remove(dump);
  FlightRecorderOptions fopts;
  fopts.path = dump;
  fopts.install_signal_handlers = false;
  InstallFlightRecorder(fopts);

  auto log = TelemetryLog::Open(ManualOptions());
  ASSERT_TRUE(log.ok());
  (*log)->Install();
  (*log)->Append(MakeRecord(RecordKind::kMetric, 1, 1.0));
  (*log)->Poll();

  // The /obs/flight endpoint triggers a dump of the installed recorder.
  auto body = ServeObservatory("/obs/flight", 2000);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_NE(body->find("\"ok\":true"), std::string::npos);

  std::ifstream f(dump);
  ASSERT_TRUE(f.good());
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  const JsonValue* flight = doc->Find("flight");
  ASSERT_NE(flight, nullptr);
  const JsonValue* blackbox = flight->Find("blackbox");
  ASSERT_NE(blackbox, nullptr);
  EXPECT_EQ(blackbox->Find("appended")->NumberOr(-1), 1);
  EXPECT_EQ(blackbox->Find("dead")->kind, JsonValue::Kind::kBool);

  // Unlike the crash path, the trigger is repeatable.
  (*log)->Append(MakeRecord(RecordKind::kMetric, 2, 2.0));
  (*log)->Poll();
  ASSERT_TRUE(TriggerFlightDump(3000).ok());
  std::ifstream f2(dump);
  std::string text2((std::istreambuf_iterator<char>(f2)),
                    std::istreambuf_iterator<char>());
  auto doc2 = ParseJson(text2);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(
      doc2->Find("flight")->Find("blackbox")->Find("appended")->NumberOr(-1),
      2);

  (*log)->Uninstall();
  std::filesystem::remove(dump);
}

TEST_F(BlackboxTest, ReaderRefusesMissingDirectory) {
  auto reader = TelemetryReader::Open(dir() + ".does-not-exist");
  EXPECT_FALSE(reader.ok());
}

TEST_F(BlackboxTest, FlusherThreadDrainsWithoutPolling) {
  TelemetryLogOptions o = ManualOptions();
  o.start_flusher = true;
  o.flush_period_ms = 1;
  auto log = TelemetryLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 256; ++i) {
    (*log)->Append(MakeRecord(RecordKind::kMetric, i));
  }
  (*log)->Stop();  // joins the flusher and performs the final flush
  TelemetryLogStats s = (*log)->stats();
  EXPECT_EQ(s.flushed, 256u);
  EXPECT_EQ(s.durable, 256u);
  auto reader = TelemetryReader::Open(dir());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->records().size(), 256u);
}

}  // namespace
}  // namespace dbm::obs::blackbox
