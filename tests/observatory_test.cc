// The Observatory end to end: retained time series and window statistics,
// derived trend gauges triggering Table-2 rules, the Fig-1 loop health
// watchdog (staleness + loop latency joined to decision records by trace
// id), the observability tables and their three renderings, the flight
// recorder, and the /obs/* endpoints served through Patia's own adaptive
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "adapt/derived.h"
#include "adapt/metrics.h"
#include "adapt/session.h"
#include "common/json.h"
#include "common/logging.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "obs/blackbox/log.h"
#include "obs/blackbox/reader.h"
#include "obs/health.h"
#include "obs/observatory.h"
#include "obs/profile.h"
#include "obs/table.h"
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
  const JsonValue* root = &*healthy;
  EXPECT_TRUE(BoolOf(root->Find("healthy")));
  const JsonValue* gauges = root->Find("gauges");
  ASSERT_TRUE(gauges != nullptr && gauges->IsArray());
  ASSERT_EQ(gauges->array.size(), 1u);
  EXPECT_FALSE(BoolOf(gauges->array[0].Find("stale")));

  auto stale = ParseJson(obs::HealthJson(Seconds(1), lh));
  ASSERT_TRUE(stale.ok());
  root = &*stale;
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
  const JsonValue* latency = health->Find("loop_latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_NE(latency->Find("count"), nullptr);
  EXPECT_NE(latency->Find("last_us"), nullptr);
  // The records themselves are the loop_latency table, not a copy here.
  EXPECT_EQ(latency->Find("records"), nullptr);
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
// The observability tables: one definition per ring, three renderings
// ---------------------------------------------------------------------------

/// One record in every ring a table reads, and a black-box directory
/// holding one record of each kind for the history.* tables.
struct Rings {
  obs::Registry registry;
  obs::Tracer tracer;
  fault::FaultLog faults;
  obs::ProfilePlane profiles;
  obs::LoopHealth health;
  std::filesystem::path dir;
  std::optional<obs::blackbox::TelemetryReader> history;

  Rings() {
    registry.GetCounter("rings.counter").Add(3);
    registry.GetGauge("rings.gauge").Set(2.5);
    registry.GetHistogram("rings.hist").Record(40);
    obs::SpanRecord span;
    span.span_id = 2;
    span.thread = 1;
    span.SetName("ring-span");
    span.SetCategory("test");
    tracer.Emit(span);
    obs::DecisionRecord decision;
    decision.constraint_id = 455;
    decision.SetSubject("atom\"123");  // quotes must survive every rendering
    decision.SetAction("SWITCH -> node2");
    decision.AddGauge("x", 2.5);
    decision.AddGauge("y", 3);
    tracer.Emit(decision);
    fault::FaultEvent fault;
    fault.SetPoint("ring.point");
    fault.SetDetail("line\nbreak");
    faults.Append(fault);
    obs::RequestProfile request;
    request.served = true;
    request.total_us = 9;
    request.SetResource("/ring");
    profiles.RecordRequest(request);
    obs::LoopLatencyRecord latency;
    latency.constraint_id = 455;
    latency.latency_us = 7;
    health.RecordLoopLatency(latency);

    // A directory per test: ctest runs the cases as parallel processes.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    dir = std::filesystem::temp_directory_path() /
          ("observatory_test_" + name + ".telem");
    std::filesystem::remove_all(dir);
    // The chaos CI arms obs.blackbox.write:crash process-wide; this
    // history must be whole, so it is written with the injector disarmed.
    fault::Injector& injector = fault::Injector::Default();
    const std::string spec = injector.spec();
    const uint64_t seed = injector.seed();
    EXPECT_TRUE(injector.Configure("", 0).ok());
    {
      obs::blackbox::TelemetryLogOptions options;
      options.dir = dir.string();
      options.start_flusher = false;
      auto log = obs::blackbox::TelemetryLog::Open(options);
      EXPECT_TRUE(log.ok());
      for (uint8_t kind = 0; kind <= 4; ++kind) {
        obs::blackbox::TelemetryRecord rec;
        rec.kind = kind;
        rec.at_us = 100 * (kind + 1);
        rec.a = 1.5;
        rec.SetName("ring.record");
        (*log)->Append(rec);
      }
      (*log)->Poll();
      EXPECT_TRUE((*log)->Flush().ok());
    }
    EXPECT_TRUE(injector.Configure(spec, seed).ok());
    auto reader = obs::blackbox::TelemetryReader::Open(dir.string());
    EXPECT_TRUE(reader.ok());
    history = *std::move(reader);
  }
  ~Rings() { std::filesystem::remove_all(dir); }

  /// The six live tables and the five history.* tables.
  std::vector<obs::Table> Tables() const {
    std::vector<obs::Table> tables = {
        obs::MetricsTable(registry), obs::SpansTable(tracer),
        obs::DecisionsTable(tracer), fault::FaultsTable(faults),
        obs::ProfilesTable(profiles), obs::LoopLatencyTable(health)};
    for (obs::Table& t : obs::blackbox::HistoryTables(*history)) {
      tables.push_back(std::move(t));
    }
    return tables;
  }
};

using GoldenColumns = std::vector<std::pair<std::string, data::ValueType>>;

// The relations /obs/query serves, their columns written out so that a
// rename, a retype or a reorder fails here. loop_latency is the newest.
TEST(ObservatoryTablesTest, QueryServesTheGoldenRelations) {
  constexpr data::ValueType kInt = data::ValueType::kInt;
  constexpr data::ValueType kDouble = data::ValueType::kDouble;
  constexpr data::ValueType kString = data::ValueType::kString;
  const std::vector<std::pair<std::string, GoldenColumns>> golden = {
      {"metrics",
       {{"name", kString}, {"kind", kString}, {"value", kDouble},
        {"count", kInt}, {"mean", kDouble}, {"min", kInt}, {"max", kInt},
        {"p50", kDouble}, {"p99", kDouble}}},
      {"spans",
       {{"trace_id", kString}, {"span_id", kInt}, {"parent_span_id", kInt},
        {"name", kString}, {"category", kString}, {"thread", kInt},
        {"start_host_ns", kInt}, {"dur_host_ns", kInt}, {"sim_begin", kInt},
        {"sim_dur", kInt}}},
      {"decisions",
       {{"trace_id", kString}, {"span_id", kInt}, {"at_sim_us", kInt},
        {"constraint_id", kInt}, {"subject", kString}, {"rule", kString},
        {"action", kString}, {"gauges", kString}}},
      {"faults",
       {{"trace_id", kString}, {"span_id", kInt}, {"at_sim_us", kInt},
        {"kind", kString}, {"point", kString}, {"detail", kString}}},
      {"profiles",
       {{"trace_id", kString}, {"resource", kString}, {"served", kInt},
        {"at_us", kInt}, {"queue_us", kInt}, {"dispatch_us", kInt},
        {"exec_us", kInt}, {"total_us", kInt}}},
      {"history.metrics",
       {{"at_us", kInt}, {"name", kString}, {"value", kDouble},
        {"publish_seq", kInt}, {"trace_id", kString}}},
      {"history.spans",
       {{"at_us", kInt}, {"name", kString}, {"category", kString},
        {"span_id", kInt}, {"parent_span_id", kInt}, {"sim_dur", kInt},
        {"trace_id", kString}}},
      {"history.decisions",
       {{"at_us", kInt}, {"constraint_id", kInt}, {"subject", kString},
        {"rule", kString}, {"action", kString}, {"trace_id", kString}}},
      {"history.faults",
       {{"at_us", kInt}, {"kind", kString}, {"point", kString},
        {"detail", kString}, {"trace_id", kString}}},
      {"history.profiles",
       {{"at_us", kInt}, {"resource", kString}, {"queue_us", kInt},
        {"dispatch_us", kInt}, {"exec_us", kInt}, {"total_us", kInt},
        {"trace_id", kString}}},
      {"loop_latency",
       {{"trace_id", kString}, {"span_id", kInt}, {"constraint_id", kInt},
        {"at_sim_us", kInt}, {"latency_us", kInt}}},
  };

  Rings rings;
  std::vector<obs::Table> tables = rings.Tables();
  ASSERT_EQ(tables.size(), golden.size());
  std::map<std::string, const obs::Table*> by_name;
  for (const obs::Table& t : tables) by_name[t.name] = &t;
  for (const auto& [name, columns] : golden) {
    SCOPED_TRACE(name);
    ASSERT_EQ(by_name.count(name), 1u);
    const data::Schema schema = obs::ToRelation(*by_name[name]).schema();
    ASSERT_EQ(schema.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      EXPECT_EQ(schema.field(i).name, columns[i].first);
      EXPECT_EQ(schema.field(i).type, columns[i].second) << columns[i].first;
    }
    // The same relation, under the same name, through /obs/query.
    auto body = obs::ObservatoryQuery(name + " limit 1", &*rings.history);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto doc = ParseJson(*body);
    ASSERT_TRUE(doc.ok()) << *body;
    EXPECT_EQ(doc->Find("relation")->StringOr(""), name);
    const JsonValue* served = doc->Find("columns");
    ASSERT_TRUE(served != nullptr && served->IsArray());
    ASSERT_EQ(served->array.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      EXPECT_EQ(served->array[i].StringOr(""), columns[i].first);
    }
  }

  // An unknown name lists what is served.
  auto bad = obs::ObservatoryQuery("nope");
  ASSERT_TRUE(bad.status().IsParseError());
  EXPECT_NE(bad.status().message().find("loop_latency"), std::string::npos);
  bad = obs::ObservatoryQuery("history.nope", &*rings.history);
  ASSERT_TRUE(bad.status().IsParseError());
  EXPECT_NE(bad.status().message().find("history.profiles"),
            std::string::npos);
}

class ObservatoryTableTest : public ::testing::TestWithParam<const char*> {};

// Every table's scan, its JSON and its relation agree with its columns.
TEST_P(ObservatoryTableTest, ScanRowsJsonAndRelationAgree) {
  Rings rings;
  std::vector<obs::Table> tables = rings.Tables();
  auto it = std::find_if(tables.begin(), tables.end(), [](const auto& t) {
    return t.name == GetParam();
  });
  ASSERT_NE(it, tables.end());
  const obs::Table& table = *it;

  size_t rows = 0;
  table.scan([&](std::vector<obs::Cell> cells) {
    ++rows;
    ASSERT_EQ(cells.size(), table.columns.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(cells[c].index(), static_cast<size_t>(table.columns[c].type))
          << table.columns[c].name;
    }
  });
  EXPECT_GE(rows, 1u);

  std::string json = obs::RowsJson(table);
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  ASSERT_TRUE(doc->IsArray());
  ASSERT_EQ(doc->array.size(), rows);
  for (const JsonValue& row : doc->array) {
    ASSERT_TRUE(row.IsObject());
    ASSERT_EQ(row.object.size(), table.columns.size());
    for (size_t c = 0; c < table.columns.size(); ++c) {
      const auto& [key, value] = row.object[c];
      EXPECT_EQ(key, table.columns[c].name);
      EXPECT_EQ(value.IsString(),
                table.columns[c].type == obs::ColumnType::kString)
          << key;
    }
  }
  EXPECT_EQ(ParseJson(obs::RowsJson(table, /*tail=*/0))->array.size(), 0u);

  data::Relation rel = obs::ToRelation(table);
  EXPECT_EQ(rel.name(), table.name);
  EXPECT_EQ(rel.rows().size(), rows);
}

INSTANTIATE_TEST_SUITE_P(
    AllTables, ObservatoryTableTest,
    ::testing::Values("metrics", "spans", "decisions", "faults", "profiles",
                      "loop_latency", "history.metrics", "history.spans",
                      "history.decisions", "history.faults",
                      "history.profiles"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, DumpIsReparseable) {
  obs::TimeSeriesStore::Default().Get("flight-ts").Record(1, 2.0);
  // A record in each ring the flight record renders as table rows.
  obs::SpanRecord span;
  span.span_id = 1;
  span.SetName("flight-span");
  obs::Tracer::Default().Emit(span);
  obs::LoopLatencyRecord latency;
  latency.constraint_id = 7;
  latency.latency_us = 5;
  obs::LoopHealth::Default().RecordLoopLatency(latency);
  fault::Record(fault::FaultEventKind::kInjected, "flight.point", "detail",
                Millis(1));
  obs::RequestProfile request;
  request.total_us = 3;
  request.SetResource("/flight");
  obs::ProfilePlane::Default().RecordRequest(request);

  const std::string path = "observatory_test.dump.flight.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::DumpFlightRecord(path, /*now_us=*/Millis(1)).ok());
  auto doc = ParseJson(ReadWholeFile(path));
  ASSERT_TRUE(doc.ok());
  const JsonValue* flight = doc->Find("flight");
  ASSERT_NE(flight, nullptr);
  const JsonValue* spans = flight->Find("spans");
  ASSERT_TRUE(spans != nullptr && spans->IsArray());
  ASSERT_FALSE(spans->array.empty());
  for (const JsonValue& s : spans->array) {
    EXPECT_NE(s.Find("thread"), nullptr);
  }
  EXPECT_NE(flight->Find("decisions"), nullptr);
  for (const char* section : {"loop_latency", "faults"}) {
    const JsonValue* rows = flight->Find(section);
    ASSERT_TRUE(rows != nullptr && rows->IsArray()) << section;
    EXPECT_FALSE(rows->array.empty()) << section;
  }
  EXPECT_NE(flight->Find("health"), nullptr);
  // The profiling plane's object itself, not the /obs/profile body.
  const JsonValue* profiles = flight->Find("profiles");
  ASSERT_NE(profiles, nullptr);
  const JsonValue* requests = profiles->Find("requests");
  ASSERT_TRUE(requests != nullptr && requests->IsArray());
  EXPECT_FALSE(requests->array.empty());
  const JsonValue* series = flight->Find("timeseries");
  ASSERT_TRUE(series != nullptr && series->IsArray());
  bool found = false;
  for (const JsonValue& ts : series->array) {
    if (ts.Find("name")->StringOr("") == "flight-ts") found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
  obs::Tracer::Default().Clear();
  obs::LoopHealth::Default().Clear();
  fault::FaultLog::Default().Clear();
  obs::ProfilePlane::Default().Clear();
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
