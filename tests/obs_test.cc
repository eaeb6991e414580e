// Tests for the observability layer: counter/gauge/histogram semantics,
// trace spans, multi-threaded aggregation exactness, JSON export, and
// the MetricsTable round trip through the repo's own query engine.

#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/observatory.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "query/expr.h"
#include "query/operator.h"

namespace dbm {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricSnapshot;
using obs::Registry;

TEST(Counter, AddValueReset) {
  Registry reg;
  Counter& c = reg.GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, SameNameSameHandle) {
  Registry reg;
  Counter& a = reg.GetCounter("test.shared");
  Counter& b = reg.GetCounter("test.shared");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Counter, MultiThreadAggregationIsExact) {
  Registry reg;
  Counter& c = reg.GetCounter("test.mt");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddValue) {
  Registry reg;
  Gauge& g = reg.GetGauge("test.gauge");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, CountSumMinMax) {
  Registry reg;
  Histogram& h = reg.GetHistogram("test.hist");
  for (uint64_t v : {5u, 10u, 100u, 1000u}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1115u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(Histogram, QuantilesClampToObservedRange) {
  Registry reg;
  Histogram& h = reg.GetHistogram("test.hist.q");
  for (int i = 0; i < 100; ++i) h.Record(64);  // all in one bucket
  EXPECT_GE(h.Quantile(0.0), 64.0 * 0);  // sane
  EXPECT_LE(h.Quantile(0.5), 128.0);
  EXPECT_GE(h.Quantile(0.5), 64.0);
  EXPECT_LE(h.Quantile(0.99), 128.0);
}

TEST(Histogram, QuantileOrderingAcrossBuckets) {
  Registry reg;
  Histogram& h = reg.GetHistogram("test.hist.order");
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(100000);
  double p50 = h.Quantile(0.5);
  double p99 = h.Quantile(0.99);
  EXPECT_LT(p50, 100.0);     // median is in the low mass
  EXPECT_GT(p99, 10000.0);   // tail reaches the spike
  EXPECT_LE(p99, 100000.0);  // clamped to observed max
}

TEST(Histogram, BucketCountsAreLogTwo) {
  Registry reg;
  Histogram& h = reg.GetHistogram("test.hist.buckets");
  h.Record(0);  // bucket 0
  h.Record(1);  // bucket 1
  h.Record(2);  // bucket 2 ([2,4))
  h.Record(3);  // bucket 2
  std::vector<uint64_t> buckets = h.BucketCounts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
}

TEST(TraceSpan, RecordsAndNests) {
  Registry reg;
  Histogram& outer = reg.GetHistogram("test.span.outer");
  Histogram& inner = reg.GetHistogram("test.span.inner");
  {
    obs::TraceSpan a(&outer);
    {
      obs::TraceSpan b(&inner);
    }
    EXPECT_EQ(outer.count(), 0u);  // still open
    EXPECT_EQ(inner.count(), 1u);
  }
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 1u);
}

TEST(Registry, SnapshotSortedAndTyped) {
  Registry reg;
  reg.GetCounter("b.counter").Add(3);
  reg.GetGauge("a.gauge").Set(1.5);
  reg.GetHistogram("c.hist").Record(8);
  std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snap[0].value, 1.5);
  EXPECT_EQ(snap[1].name, "b.counter");
  EXPECT_EQ(snap[1].count, 3u);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].count, 1u);
  EXPECT_EQ(snap[2].min, 8u);
}

TEST(Registry, ZeroAllKeepsHandlesValid) {
  Registry reg;
  Counter& c = reg.GetCounter("z.counter");
  c.Add(9);
  reg.ZeroAll();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  c.Add(2);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Export, JsonContainsMetrics) {
  Registry reg;
  reg.GetCounter("j.counter").Add(5);
  reg.GetHistogram("j.hist").Record(16);
  std::string json = obs::ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"j.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"j.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Export, NonFiniteGaugesStayParseableJsonAndPrometheus) {
  Registry reg;
  reg.GetGauge("g.nan").Set(std::numeric_limits<double>::quiet_NaN());
  reg.GetGauge("g.inf").Set(std::numeric_limits<double>::infinity());
  auto doc = ParseJson(obs::ToJson(reg.Snapshot()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->IsArray());
  ASSERT_EQ(metrics->array.size(), 2u);
  for (const JsonValue& m : metrics->array) {
    const JsonValue* value = m.Find("value");
    ASSERT_NE(value, nullptr) << m.Find("name")->StringOr("");
    EXPECT_TRUE(value->IsNull()) << m.Find("name")->StringOr("");
  }
  // The Prometheus text format spells them out.
  const std::string prom = obs::PrometheusText(reg);
  EXPECT_NE(prom.find("\ng_nan NaN\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("\ng_inf +Inf\n"), std::string::npos) << prom;
}

TEST(Export, WriteJsonFileRoundTrip) {
  Registry reg;
  reg.GetCounter("f.counter").Add(1);
  const std::string path = "obs_test_sidecar.metrics.json";
  ASSERT_TRUE(obs::WriteJsonFile(path, reg).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("f.counter"), std::string::npos);
}

// The DBOS slant: the metrics snapshot is a relation the repo's own
// query engine can filter — monitors-to-gauges, gauges-to-tables.
TEST(MetricsTable, QueryableThroughExecutor) {
  Registry reg;
  reg.GetCounter("table.requests").Add(42);
  reg.GetCounter("table.errors").Add(1);
  reg.GetGauge("table.hit_rate").Set(0.9);

  data::Relation rel = obs::ToRelation(obs::MetricsTable(reg));
  ASSERT_EQ(rel.rows().size(), 3u);

  // σ(count > 10) over metrics(name, kind, value, count, ...).
  const data::Schema& schema = rel.schema();
  auto count_col = query::Col(schema, "count");
  ASSERT_TRUE(count_col.ok());
  auto root = std::make_unique<query::FilterOp>(
      std::make_unique<query::MemSource>(&rel),
      query::Gt(std::move(*count_col), query::Lit(data::Value{int64_t{10}})));

  std::vector<data::Tuple> out;
  auto stats = query::Execute(root.get(), &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<std::string>(out[0].values[0]), "table.requests");
  EXPECT_EQ(std::get<int64_t>(out[0].values[3]), 42);
}

}  // namespace
}  // namespace dbm
