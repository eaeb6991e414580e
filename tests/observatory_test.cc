// The Observatory end to end: retained time series and window statistics,
// derived trend gauges triggering Table-2 rules, the Fig-1 loop health
// watchdog (staleness + loop latency joined to decision records by trace
// id), the flight recorder, and the /obs/* endpoints served through
// Patia's own adaptive path.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "adapt/derived.h"
#include "adapt/metrics.h"
#include "adapt/session.h"
#include "common/json.h"
#include "common/logging.h"
#include "obs/health.h"
#include "obs/observatory.h"
#include "obs/timeseries.h"
#include "patia/observatory.h"
#include "patia/patia.h"

namespace dbm {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool BoolOf(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
}

// ---------------------------------------------------------------------------
// Window statistics on hand-computed sequences
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, WindowStatsHandComputed) {
  std::vector<obs::TsSample> s = {
      {0, 10.0}, {Seconds(1), 20.0}, {Seconds(2), 40.0}};
  // (40 - 10) / 2s.
  EXPECT_DOUBLE_EQ(obs::RatePerSecond(s), 15.0);
  // Seeded with 10: 0.5*20+0.5*10 = 15, then 0.5*40+0.5*15 = 27.5.
  EXPECT_DOUBLE_EQ(obs::Ewma(s, 0.5), 27.5);
  EXPECT_DOUBLE_EQ(obs::SampleMean(s), 70.0 / 3.0);

  std::vector<obs::TsSample> q;
  for (int i = 1; i <= 5; ++i) {
    q.push_back({Millis(i), 10.0 * i});  // values 10..50
  }
  // rank(q) = round(q * (n-1)): p0 -> 10, p50 -> rank 2 -> 30,
  // p95 -> rank 4 -> 50.
  EXPECT_DOUBLE_EQ(obs::SampleQuantile(q, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(obs::SampleQuantile(q, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(obs::SampleQuantile(q, 0.95), 50.0);

  EXPECT_DOUBLE_EQ(obs::RatePerSecond({}), 0.0);
  EXPECT_DOUBLE_EQ(obs::Ewma({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::SampleQuantile({}, 0.5), 0.0);
}

TEST(TimeSeriesTest, RingWrapAroundKeepsNewest) {
  obs::TimeSeries ts("wrap", 4);
  for (int i = 0; i < 10; ++i) {
    ts.Record(Millis(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.total(), 10u);
  EXPECT_EQ(ts.overwritten(), 6u);
  std::vector<obs::TsSample> got = ts.Snapshot();
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].at_us, Millis(6 + i));
    EXPECT_DOUBLE_EQ(got[i].value, 6.0 + i);
  }
  // Window narrows further.
  EXPECT_EQ(ts.Window(Millis(8)).size(), 2u);
}

TEST(TimeSeriesTest, HistogramWindowExcludesPreWindowSamples) {
  obs::Histogram h;
  // 100 pre-window samples near 100us.
  for (int i = 0; i < 100; ++i) h.Record(100);
  obs::HistogramWindow w;
  w.Push(/*at_us=*/0, h);
  // 8 in-window samples near 1000us (bucket [512, 1024)).
  for (int i = 0; i < 8; ++i) h.Record(1000);
  w.Push(/*at_us=*/Millis(10), h);

  EXPECT_EQ(w.WindowCount(Millis(1)), 8u);
  double p50 = w.WindowQuantile(Millis(1), 0.5);
  EXPECT_GE(p50, 512.0);
  EXPECT_LT(p50, 1024.0);
  // The whole-history quantile would be dominated by the 100us mass.
  EXPECT_LT(w.WindowQuantile(/*from_us=*/-1, 0.5), 256.0);
}

TEST(TimeSeriesTest, StoreHandlesAreStable) {
  obs::TimeSeriesStore store(8);
  obs::TimeSeries& a = store.Get("one");
  obs::TimeSeries& b = store.Get("one");
  EXPECT_EQ(&a, &b);
  a.Record(1, 2.0);
  ASSERT_NE(store.Find("one"), nullptr);
  EXPECT_EQ(store.Find("one")->total(), 1u);
  EXPECT_EQ(store.Find("absent"), nullptr);
}

// ---------------------------------------------------------------------------
// Staleness watchdog
// ---------------------------------------------------------------------------

TEST(LoopHealthTest, StalenessFlipsHealthyStaleHealthy) {
  obs::LoopHealth lh(/*staleness_factor=*/2.0);
  lh.Expect("g", Millis(1));

  // Declared but never sampled: stale.
  auto v = lh.Verdicts(Millis(1));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(v[0].stale);
  EXPECT_FALSE(v[0].ever_sampled);
  EXPECT_EQ(v[0].age_us, -1);

  lh.RecordSample("g", Millis(1));
  v = lh.Verdicts(Millis(2));  // age 1ms <= 2 * 1ms
  EXPECT_FALSE(v[0].stale);
  EXPECT_TRUE(lh.AllHealthy(Millis(2)));

  v = lh.Verdicts(Millis(10));  // age 9ms > 2ms: stale again
  EXPECT_TRUE(v[0].stale);
  EXPECT_FALSE(lh.AllHealthy(Millis(10)));

  lh.RecordSample("g", Millis(10));  // fresh sample: healthy again
  EXPECT_TRUE(lh.AllHealthy(Millis(10)));

  // No declared period: watched, never stale.
  obs::LoopHealth free_running(2.0);
  free_running.RecordSample("free", Millis(1));
  EXPECT_TRUE(free_running.AllHealthy(Seconds(100)));
}

TEST(LoopHealthTest, HealthJsonRendersBothStates) {
  obs::LoopHealth lh(2.0);
  lh.Expect("g", Millis(1));
  lh.RecordSample("g", 0);

  auto healthy = ParseJson(obs::HealthJson(Millis(1), lh));
  ASSERT_TRUE(healthy.ok());
  const JsonValue* root = healthy->Find("health");
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(BoolOf(root->Find("healthy")));
  const JsonValue* gauges = root->Find("gauges");
  ASSERT_TRUE(gauges != nullptr && gauges->IsArray());
  ASSERT_EQ(gauges->array.size(), 1u);
  EXPECT_FALSE(BoolOf(gauges->array[0].Find("stale")));

  auto stale = ParseJson(obs::HealthJson(Seconds(1), lh));
  ASSERT_TRUE(stale.ok());
  root = stale->Find("health");
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(BoolOf(root->Find("healthy")));
  EXPECT_TRUE(BoolOf(root->Find("gauges")->array[0].Find("stale")));
}

// ---------------------------------------------------------------------------
// MetricBus channels + derived gauges
// ---------------------------------------------------------------------------

TEST(DerivedTest, BusChannelsAreResolvedOnce) {
  adapt::MetricBus bus;
  adapt::MetricBus::Channel* a = bus.GetChannel("chan-test");
  adapt::MetricBus::Channel* b = bus.GetChannel("chan-test");
  EXPECT_EQ(a, b);
  bus.Publish(a, 7.5, Millis(3));
  EXPECT_DOUBLE_EQ(bus.GetOr("chan-test", 0), 7.5);
  EXPECT_DOUBLE_EQ(a->mirror->value(), 7.5);  // registry mirror updated
  EXPECT_EQ(a->series->total(), 1u);          // history retained
  EXPECT_EQ(a->publishes, 1u);
}

TEST(DerivedTest, PublishesWindowedStatsOntoBus) {
  adapt::MetricBus bus;
  adapt::DerivedPublisher derived(&bus);
  adapt::DerivedSpec p95;
  p95.source = "derived-test-lat";
  p95.kind = adapt::DerivedKind::kP95;
  derived.Add(p95);
  adapt::DerivedSpec rate;
  rate.source = "derived-test-lat";
  rate.kind = adapt::DerivedKind::kRate;
  rate.window = Seconds(2);
  derived.Add(rate);
  EXPECT_EQ(derived.size(), 2u);

  // Cumulative 0..20 over 2s: rate = 10/s; p95 of the values = 19.
  for (int i = 0; i <= 20; ++i) {
    bus.Publish("derived-test-lat", static_cast<double>(i),
                i * Seconds(2) / 20);
  }
  derived.Tick(Seconds(2));
  EXPECT_DOUBLE_EQ(bus.GetOr("derived.derived-test-lat.p95", 0), 19.0);
  EXPECT_DOUBLE_EQ(bus.GetOr("derived.derived-test-lat.rate", 0), 10.0);
}

TEST(DerivedTest, WindowedMaxTracksPeakThenForgetsIt) {
  adapt::MetricBus bus;
  adapt::DerivedPublisher derived(&bus);
  adapt::DerivedSpec peak;
  peak.source = "derived-test-depth";
  peak.kind = adapt::DerivedKind::kMax;
  peak.window = Seconds(2);
  derived.Add(peak);

  bus.Publish("derived-test-depth", 3, Millis(500));
  bus.Publish("derived-test-depth", 9, Seconds(1));
  derived.Tick(Seconds(1) + Millis(100));
  EXPECT_DOUBLE_EQ(bus.GetOr("derived.derived-test-depth.max", 0), 9.0);

  // The window slides past the spike: only the later, smaller samples
  // remain, so the published peak drops with them.
  bus.Publish("derived-test-depth", 5, Seconds(2));
  bus.Publish("derived-test-depth", 4, Seconds(3));
  derived.Tick(Seconds(3) + Millis(200));
  EXPECT_DOUBLE_EQ(bus.GetOr("derived.derived-test-depth.max", 0), 5.0);
}

// ---------------------------------------------------------------------------
// Acceptance: a Table-2 rule on a derived percentile fires, and its
// DecisionRecord joins to a nonzero fig1.loop_latency sample by trace id.
// ---------------------------------------------------------------------------

TEST(Fig1LoopTest, DerivedRuleFiresAndLoopLatencyJoinsByTraceId) {
  obs::LoopHealth::Default().Clear();
  obs::Tracer::Default().Clear();
  obs::TracerOptions topt;
  topt.sample_rate = 1.0;
  obs::Tracer::Default().Configure(topt);

  adapt::MetricBus bus;
  adapt::ConstraintTable rules;
  auto sm = std::make_shared<adapt::SessionManager>("sm", &bus, &rules);
  auto am = std::make_shared<adapt::AdaptivityManager>();
  sm->FindPort("adaptivity")->SetTarget(am);
  bool enacted = false;
  am->RegisterHandler("", [&](const adapt::AdaptationRequest&) {
    enacted = true;
    return Status::OK();
  });
  ASSERT_TRUE(rules
                  .Add(700, "accept-subject",
                       "If derived.accept-lat.p95 > 40000 then "
                       "SWITCH(node1.x, node2.x)")
                  .ok());

  adapt::DerivedPublisher derived(&bus);
  adapt::DerivedSpec spec;
  spec.source = "accept-lat";
  spec.kind = adapt::DerivedKind::kP95;
  derived.Add(spec);

  for (int i = 0; i < 20; ++i) {
    bus.Publish("accept-lat", 50000.0 + i, Millis(i));
  }
  // Derived gauge published at t1; the rule is evaluated at t2 > t1, so
  // the end-to-end loop latency (gauge publish -> enactment) is t2 - t1.
  const SimTime t1 = Millis(100);
  derived.Tick(t1);
  const SimTime t2 = t1 + Millis(7);
  auto n = sm->CheckConstraints(t2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(enacted);

  auto lats = obs::LoopHealth::Default().LoopLatencies();
  ASSERT_EQ(lats.size(), 1u);
  EXPECT_EQ(lats[0].latency_us, Millis(7));
  EXPECT_GT(lats[0].latency_us, 0);
  EXPECT_EQ(lats[0].constraint_id, 700);
  ASSERT_TRUE(lats[0].trace_id.valid());

  bool joined = false;
  for (const obs::DecisionRecord& d : obs::Tracer::Default().Decisions()) {
    if (d.trace_id == lats[0].trace_id && d.span_id == lats[0].span_id) {
      EXPECT_EQ(d.constraint_id, 700);
      EXPECT_STREQ(d.subject, "accept-subject");
      joined = true;
    }
  }
  EXPECT_TRUE(joined);

  obs::TracerOptions off;
  obs::Tracer::Default().Configure(off);
}

// ---------------------------------------------------------------------------
// ServedLog bounding
// ---------------------------------------------------------------------------

TEST(ServedLogTest, BoundsRetentionAndCountsDrops) {
  patia::ServedLog log(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    patia::ServedRequest r;
    r.atom_id = i;
    log.Push(r);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log[0].atom_id, 0);  // head-keeping: first requests retained
  EXPECT_EQ(log.back().atom_id, 3);
  log.Clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// The endpoints, served through Patia itself
// ---------------------------------------------------------------------------

struct ObsRig {
  EventLoop loop;
  net::Network net{&loop};
  adapt::MetricBus bus;
  patia::PatiaServer server{&net, &bus};

  ObsRig() {
    net.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
    net.AddDevice({"client", net::DeviceClass::kPda, 0.2, 50, 5, 5});
    net.Connect("node1", "client", {8000, Millis(2), "wired"});
    EXPECT_TRUE(server.AddNode("node1", {4, Millis(2)}).ok());
    auto registered = patia::RegisterObservatory(&server, {"node1"});
    EXPECT_TRUE(registered.ok());
    EXPECT_EQ(registered->size(), 9u);
  }

  /// Requests `path` and runs the loop until the body arrives. The
  /// horizon is bounded because StartTicking reschedules forever.
  std::string Fetch(const std::string& path) {
    std::string body;
    EXPECT_TRUE(server
                    .Request("client", path,
                             [&](const patia::ServedRequest& r) {
                               body = r.body;
                               EXPECT_GT(r.Latency(), 0);
                             })
                    .ok());
    loop.RunUntil(loop.Now() + Seconds(2));
    return body;
  }
};

TEST(ObservatoryServeTest, MetricsEndpointIsPrometheusText) {
  ObsRig rig;
  std::string body = rig.Fetch("/obs/metrics");
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("# TYPE "), std::string::npos);
  // The serving path's own counter is visible in the body it served.
  EXPECT_NE(body.find("patia_requests"), std::string::npos);
  // Served bodies never land in the log.
  ASSERT_EQ(rig.server.stats().log.size(), 1u);
  EXPECT_TRUE(rig.server.stats().log[0].body.empty());
}

TEST(ObservatoryServeTest, HealthEndpointIsWellFormedJson) {
  ObsRig rig;
  rig.server.StartTicking(Millis(5));
  std::string body = rig.Fetch("/obs/health");
  auto doc = ParseJson(body);
  ASSERT_TRUE(doc.ok()) << body;
  const JsonValue* health = doc->Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_NE(health->Find("healthy"), nullptr);
  EXPECT_NE(health->Find("gauges"), nullptr);
  EXPECT_NE(health->Find("loop_latency"), nullptr);
}

TEST(ObservatoryServeTest, QueryEndpointRunsThroughQueryEngine) {
  ObsRig rig;
  std::string body =
      rig.Fetch("/obs/query?q=metrics where kind = counter limit 3");
  auto doc = ParseJson(body);
  ASSERT_TRUE(doc.ok()) << body;
  EXPECT_EQ(doc->Find("relation")->StringOr(""), "metrics");
  const JsonValue* rows = doc->Find("rows");
  ASSERT_TRUE(rows != nullptr && rows->IsArray());
  EXPECT_LE(rows->array.size(), 3u);
  EXPECT_FALSE(rows->array.empty());

  // A malformed query serves an error body rather than failing the
  // request path. The body stays JSON when the error message echoes a
  // quote from the request.
  for (const char* q : {"nonsense", "a\"b"}) {
    std::string bad = rig.Fetch(std::string("/obs/query?q=") + q);
    auto bad_doc = ParseJson(bad);
    ASSERT_TRUE(bad_doc.ok()) << bad;
    EXPECT_NE(bad_doc->Find("error"), nullptr) << bad;
  }

  // Numbers in a query parse whole or not at all.
  for (const char* q :
       {"metrics where count = abc", "metrics where value > 1.5x",
        "metrics limit abc", "metrics limit 3x", "metrics limit -1"}) {
    EXPECT_TRUE(obs::ObservatoryQuery(q).status().IsParseError()) << q;
  }
  EXPECT_TRUE(obs::ObservatoryQuery("metrics where count >= 0 limit 2").ok());

  std::string ts = rig.Fetch("/obs/timeseries");
  EXPECT_TRUE(ParseJson(ts).ok());
  std::string decisions = rig.Fetch("/obs/decisions");
  EXPECT_TRUE(ParseJson(decisions).ok());
}

TEST(ObservatoryServeTest, ServeObservatoryRejectsUnknownEndpoint) {
  auto r = obs::ServeObservatory("/obs/nope", 0);
  EXPECT_TRUE(r.status().IsNotFound());
  auto noq = obs::ServeObservatory("/obs/query?x=1", 0);
  EXPECT_TRUE(noq.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, DumpIsReparseable) {
  obs::TimeSeriesStore::Default().Get("flight-ts").Record(1, 2.0);
  const std::string path = "observatory_test.dump.flight.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::DumpFlightRecord(path, /*now_us=*/Millis(1)).ok());
  auto doc = ParseJson(ReadWholeFile(path));
  ASSERT_TRUE(doc.ok());
  const JsonValue* flight = doc->Find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_NE(flight->Find("spans"), nullptr);
  EXPECT_NE(flight->Find("decisions"), nullptr);
  EXPECT_NE(flight->Find("health"), nullptr);
  const JsonValue* series = flight->Find("timeseries");
  ASSERT_TRUE(series != nullptr && series->IsArray());
  bool found = false;
  for (const JsonValue& ts : series->array) {
    if (ts.Find("name")->StringOr("") == "flight-ts") found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, CheckFailureWritesSidecar) {
  const std::string path = "observatory_test.check.flight.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        obs::FlightRecorderOptions o;
        o.path = path;
        o.install_signal_handlers = false;
        obs::InstallFlightRecorder(o);
        DBM_CHECK(1 == 2) << "forced failure for the flight recorder";
      },
      "CHECK failed: 1 == 2");
  // The child's dump is a complete, parseable flight record.
  std::string text = ReadWholeFile(path);
  ASSERT_FALSE(text.empty());
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Find("flight"), nullptr);
  EXPECT_NE(doc->Find("flight")->Find("spans"), nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbm
