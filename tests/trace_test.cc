// Tests for causal tracing: ring publication under contention, context
// propagation and sampling, the Chrome trace_event round trip, the
// spans/decisions relations through the repo's own query engine, the
// Table-2 DecisionRecord, and the Fig-1 scenario-3 acceptance chain
// (ORB hop → executor operators → rule firing → reconfiguration).

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/metrics.h"
#include "adapt/rules.h"
#include "adapt/session.h"
#include "dbmachine/scenarios.h"
#include "obs/trace_export.h"
#include "obs/observatory.h"
#include "obs/tracectx.h"
#include "query/executor.h"
#include "query/expr.h"
#include "query/operator.h"

namespace dbm {
namespace {

using obs::DecisionRecord;
using obs::SpanRecord;
using obs::TraceContext;
using obs::TraceId;
using obs::Tracer;
using obs::TracerOptions;
using obs::TraceRing;

/// Restores Tracer::Default() to its dormant state on scope exit, so a
/// test that arms the process-wide tracer cannot leak sampling into its
/// neighbours.
struct DefaultTracerEpoch {
  explicit DefaultTracerEpoch(double sample_rate) {
    TracerOptions opt;
    opt.sample_rate = sample_rate;
    Tracer::Default().Configure(opt);
  }
  ~DefaultTracerEpoch() { Tracer::Default().Configure(TracerOptions{}); }
};

TEST(TraceId, HexRoundTrip) {
  TraceId id{0x0123456789abcdefull, 0xfedcba9876543210ull};
  std::string hex = id.ToHex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(TraceId::FromHex(hex), id);
  EXPECT_FALSE(TraceId::FromHex("not-hex").valid());
  EXPECT_FALSE(TraceId::FromHex("abcd").valid());
}

// --- the ring ---------------------------------------------------------------

TEST(TraceRing, KeepsHeadCountsOverflow) {
  TraceRing<SpanRecord> ring(4);
  SpanRecord rec{};
  for (uint64_t i = 0; i < 7; ++i) {
    rec.span_id = i + 1;
    ring.Append(rec);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].span_id, i + 1);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

// 8 writers hammer a ring smaller than the total write volume; every
// snapshotted record must be internally consistent (all fields derived
// from the same claim), nothing torn, and kept + dropped must add up.
TEST(TraceRing, EightThreadStressNoLostOrTornRecords) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 4000;
  constexpr size_t kCapacity = 1 << 12;  // 4096 < 8 * 4000
  TraceRing<SpanRecord> ring(kCapacity);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        SpanRecord rec{};
        uint64_t tag = (static_cast<uint64_t>(t) << 32) | i;
        rec.span_id = tag;
        rec.parent_span_id = ~tag;  // redundant encoding to catch tearing
        rec.trace_id = TraceId{tag * 3, tag * 5};
        rec.thread = static_cast<uint32_t>(t);
        char name[obs::kTraceNameMax];
        std::snprintf(name, sizeof(name), "t%d.%llu", t,
                      static_cast<unsigned long long>(i));
        rec.SetName(name);
        ring.Append(rec);
      }
    });
  }
  for (auto& w : writers) w.join();

  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(ring.size() + ring.dropped(), total);
  auto snap = ring.Snapshot();
  EXPECT_EQ(snap.size(), kCapacity);
  for (const SpanRecord& rec : snap) {
    uint64_t tag = rec.span_id;
    EXPECT_EQ(rec.parent_span_id, ~tag);
    EXPECT_EQ(rec.trace_id.hi, tag * 3);
    EXPECT_EQ(rec.trace_id.lo, tag * 5);
    uint64_t t = tag >> 32;
    uint64_t i = tag & 0xffffffffull;
    EXPECT_EQ(rec.thread, t);
    char expect[obs::kTraceNameMax];
    std::snprintf(expect, sizeof(expect), "t%llu.%llu",
                  static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(i));
    EXPECT_STREQ(rec.name, expect);
  }
}

// --- context propagation + sampling ----------------------------------------

TEST(SpanScope, SamplingOffMeansInactiveAndNoRecords) {
  Tracer tracer;  // default options: sample_rate 0
  {
    obs::SpanScope span("root", "test", nullptr, &tracer);
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(obs::CurrentContext().valid());
    EXPECT_EQ(obs::CurrentTraceLogPrefix(), "");
  }
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(SpanScope, RootChildLinkageAndLogPrefix) {
  TracerOptions opt;
  opt.sample_rate = 1.0;
  Tracer tracer(opt);
  TraceId trace;
  uint64_t root_id = 0, child_id = 0;
  {
    obs::SpanScope root("request", "test", nullptr, &tracer);
    ASSERT_TRUE(root.active());
    trace = root.context().trace_id;
    root_id = root.context().span_id;
    EXPECT_TRUE(trace.valid());
    {
      obs::SpanScope child("stage", "test", nullptr, &tracer);
      ASSERT_TRUE(child.active());
      child_id = child.context().span_id;
      EXPECT_EQ(child.context().trace_id, trace);
      EXPECT_EQ(child.context().parent_span_id, root_id);
      std::string prefix = obs::CurrentTraceLogPrefix();
      EXPECT_NE(prefix.find("trace=" + trace.ToHex()), std::string::npos);
    }
    // Parent context restored after the child closes.
    EXPECT_EQ(obs::CurrentContext().span_id, root_id);
  }
  EXPECT_FALSE(obs::CurrentContext().valid());

  auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);  // child emitted first (closes first)
  EXPECT_STREQ(spans[0].name, "stage");
  EXPECT_EQ(spans[0].parent_span_id, root_id);
  EXPECT_EQ(spans[0].span_id, child_id);
  EXPECT_STREQ(spans[1].name, "request");
  EXPECT_EQ(spans[1].parent_span_id, 0u);
  EXPECT_EQ(spans[1].trace_id, trace);
}

TEST(ContextGuard, AdoptsAndRestores) {
  TraceContext ctx;
  ctx.trace_id = TraceId{7, 9};
  ctx.span_id = 42;
  {
    obs::ContextGuard guard(ctx);
    EXPECT_TRUE(obs::CurrentContext().valid());
    EXPECT_EQ(obs::CurrentContext().span_id, 42u);
  }
  EXPECT_FALSE(obs::CurrentContext().valid());
}

// --- the exporter round trip ------------------------------------------------

void ExpectSpanEq(const SpanRecord& a, const SpanRecord& b) {
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_EQ(a.parent_span_id, b.parent_span_id);
  EXPECT_EQ(a.start_host_ns, b.start_host_ns);
  EXPECT_EQ(a.dur_host_ns, b.dur_host_ns);
  EXPECT_EQ(a.sim_begin, b.sim_begin);
  EXPECT_EQ(a.sim_dur, b.sim_dur);
  EXPECT_EQ(a.thread, b.thread);
  EXPECT_STREQ(a.name, b.name);
  EXPECT_STREQ(a.category, b.category);
}

void ExpectDecisionEq(const DecisionRecord& a, const DecisionRecord& b) {
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_EQ(a.at_host_ns, b.at_host_ns);
  EXPECT_EQ(a.at_sim_us, b.at_sim_us);
  EXPECT_EQ(a.constraint_id, b.constraint_id);
  ASSERT_EQ(a.gauge_count, b.gauge_count);
  for (int32_t i = 0; i < a.gauge_count; ++i) {
    EXPECT_STREQ(a.gauges[i].metric, b.gauges[i].metric);
    EXPECT_EQ(a.gauges[i].value, b.gauges[i].value);
  }
  EXPECT_STREQ(a.subject, b.subject);
  EXPECT_STREQ(a.rule, b.rule);
  EXPECT_STREQ(a.action, b.action);
}

TEST(TraceExport, ChromeJsonRoundTripIsLossless) {
  std::vector<SpanRecord> spans;
  SpanRecord s1{};
  s1.trace_id = TraceId{0xffffffffffffffffull, 1};
  s1.span_id = 0x8000000000000001ull;  // does not fit a double
  s1.parent_span_id = 0;
  s1.start_host_ns = 123456789012345678ull;
  s1.dur_host_ns = 987654321ull;
  s1.sim_begin = 73;
  s1.sim_dur = 0xdeadbeefcafef00dull;
  s1.thread = 3;
  s1.SetName("name with \"quotes\" \\ and\ttabs");
  s1.SetCategory("os.orb");
  spans.push_back(s1);
  SpanRecord s2{};
  s2.trace_id = s1.trace_id;
  s2.span_id = 2;
  s2.parent_span_id = s1.span_id;
  s2.SetName("child");
  s2.SetCategory("query");
  spans.push_back(s2);

  std::vector<DecisionRecord> decisions;
  DecisionRecord d{};
  d.trace_id = s1.trace_id;
  d.span_id = s1.span_id;
  d.at_host_ns = 123456789012400000ull;
  d.at_sim_us = -5;  // negative SimTime must survive the hex bit-cast
  d.constraint_id = 455;
  d.SetSubject("atom123");
  d.SetRule("If processor-util > 90 then SWITCH(a, b)");
  d.SetAction("SWITCH -> node2.Page1.html");
  d.AddGauge("processor-util", 95.0625);
  d.AddGauge("memory-util", 0.1);  // exact in binary? no — check %.17g
  decisions.push_back(d);

  std::string json = obs::ToChromeTraceJson(spans, decisions);
  auto parsed = obs::ParseChromeTraceJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->spans.size(), spans.size());
  ASSERT_EQ(parsed->decisions.size(), decisions.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    ExpectSpanEq(parsed->spans[i], spans[i]);
  }
  ExpectDecisionEq(parsed->decisions[0], d);

  // And a second generation is byte-identical: export(parse(export(x)))
  // == export(x).
  EXPECT_EQ(obs::ToChromeTraceJson(parsed->spans, parsed->decisions), json);
}

TEST(TraceExport, RejectsForeignDocuments) {
  EXPECT_FALSE(obs::ParseChromeTraceJson("not json").ok());
  EXPECT_FALSE(obs::ParseChromeTraceJson("{}").ok());
  EXPECT_FALSE(obs::ParseChromeTraceJson(
                   R"({"traceEvents":[{"ph":"M","name":"meta"}]})")
                   .ok());
}

// --- spans and decisions as relations ---------------------------------------

TEST(TraceTable, SpansQueryableThroughExecutor) {
  TracerOptions opt;
  opt.sample_rate = 1.0;
  Tracer tracer(opt);
  {
    obs::SpanScope root("request", "test.root", nullptr, &tracer);
    obs::SpanScope stage("hash-join", "test.operator", nullptr, &tracer);
    stage.SetSimRange(100, 50);
  }

  data::Relation rel = obs::ToRelation(obs::SpansTable(tracer));
  ASSERT_EQ(rel.rows().size(), 2u);

  // σ(category = 'test.operator') over spans(...).
  const data::Schema& schema = rel.schema();
  auto cat = query::Col(schema, "category");
  ASSERT_TRUE(cat.ok());
  auto root = std::make_unique<query::FilterOp>(
      std::make_unique<query::MemSource>(&rel),
      query::Eq(std::move(*cat),
                query::Lit(data::Value{std::string("test.operator")})));
  std::vector<data::Tuple> out;
  auto stats = query::Execute(root.get(), &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<std::string>(out[0].values[3]), "hash-join");
  EXPECT_EQ(std::get<int64_t>(out[0].values[8]), 100);  // sim_begin
  EXPECT_EQ(std::get<int64_t>(out[0].values[9]), 50);   // sim_dur
}

// --- the Table-2 decision log -----------------------------------------------

class MapScorer : public adapt::TargetScorer {
 public:
  std::map<std::string, double> scores;
  std::optional<adapt::Target> current;
  double Score(const adapt::Target& t) const override {
    auto it = scores.find(t.ToString());
    return it == scores.end() ? 0 : it->second;
  }
  std::optional<adapt::Target> Current() const override { return current; }
};

// A Table-2 flash-crowd SWITCH rule fires; the decision log must hold the
// rule text, the gauge readings the evaluation consumed, and the chosen
// action — queryable through the decisions relation.
TEST(DecisionLog, SwitchRuleFiringCapturesGaugeInputs) {
  DefaultTracerEpoch epoch(0.0);  // decisions are logged even unsampled
  Tracer::Default().Clear();

  adapt::MetricBus bus;
  adapt::ConstraintTable table;
  auto am = std::make_shared<adapt::AdaptivityManager>();
  auto sm = std::make_shared<adapt::SessionManager>("sm", &bus, &table);
  sm->FindPort("adaptivity")->SetTarget(am);
  MapScorer scorer;
  scorer.scores["node2.Page1.html"] = 3;
  scorer.current =
      adapt::ParseRule("Select node1.Page1.html")->action.targets[0];
  sm->SetScorer("", &scorer);
  am->RegisterHandler(
      "", [](const adapt::AdaptationRequest&) { return Status::OK(); });

  ASSERT_TRUE(table
                  .Add(455, "atom123",
                       "If processor-util > 90 then SWITCH(node1.Page1.html, "
                       "node2.Page1.html)")
                  .ok());
  bus.Publish("processor-util", 95.5, 7);
  auto n = sm->CheckConstraints(7);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1);

  auto decisions = Tracer::Default().Decisions();
  ASSERT_EQ(decisions.size(), 1u);
  const DecisionRecord& d = decisions[0];
  EXPECT_EQ(d.constraint_id, 455);
  EXPECT_EQ(d.at_sim_us, 7);
  EXPECT_FALSE(d.trace_id.valid());  // fired outside any sampled request
  EXPECT_STREQ(d.subject, "atom123");
  EXPECT_NE(std::string(d.rule).find("processor-util > 90"),
            std::string::npos);
  EXPECT_NE(std::string(d.action).find("SWITCH"), std::string::npos);
  EXPECT_NE(std::string(d.action).find("node2.Page1.html"),
            std::string::npos);
  ASSERT_EQ(d.gauge_count, 1);
  EXPECT_STREQ(d.gauges[0].metric, "processor-util");
  EXPECT_EQ(d.gauges[0].value, 95.5);

  // σ(constraint_id = 455) over decisions(...).
  data::Relation rel = obs::ToRelation(obs::DecisionsTable());
  const data::Schema& schema = rel.schema();
  auto col = query::Col(schema, "constraint_id");
  ASSERT_TRUE(col.ok());
  auto root = std::make_unique<query::FilterOp>(
      std::make_unique<query::MemSource>(&rel),
      query::Eq(std::move(*col), query::Lit(data::Value{int64_t{455}})));
  std::vector<data::Tuple> out;
  ASSERT_TRUE(query::Execute(root.get(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<std::string>(out[0].values[4]), "atom123");
  EXPECT_NE(std::get<std::string>(out[0].values[7]).find("processor-util="),
            std::string::npos);

  Tracer::Default().Clear();
}

// --- the Fig-1 acceptance chain ---------------------------------------------

// One traced scenario-3 run in fig1_loop mode must produce a span tree
// linking ORB hop → executor operators → rule firing → reconfiguration,
// with the matching DecisionRecord retrievable via the query engine.
TEST(Scenario3Fig1, TracedRunLinksOrbHopToReconfiguration) {
  DefaultTracerEpoch epoch(1.0);
  Tracer::Default().Clear();

  machine::Scenario3Config config;
  config.stats_error = 0.02;  // wrong enough that re-optimisation fires
  config.fig1_loop = true;
  auto report = machine::RunScenario3(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->rule_firings, 1u);
  EXPECT_GE(report->exec.reoptimizations, 1u);
  ASSERT_FALSE(report->trace_id.empty());
  TraceId trace = TraceId::FromHex(report->trace_id);
  ASSERT_TRUE(trace.valid());

  auto spans = Tracer::Default().Spans();
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    if (s.trace_id == trace) by_id[s.span_id] = &s;
  }
  auto find_by_cat = [&](const char* cat) -> const SpanRecord* {
    for (const auto& [id, s] : by_id) {
      if (std::strcmp(s->category, cat) == 0) return s;
    }
    return nullptr;
  };
  const SpanRecord* hop = find_by_cat("os.orb");
  const SpanRecord* op = find_by_cat("query.operator");
  const SpanRecord* firing = find_by_cat("adapt.session");
  const SpanRecord* reopt = find_by_cat("query.adapt");
  const SpanRecord* enact = find_by_cat("adapt");
  ASSERT_NE(hop, nullptr);
  ASSERT_NE(op, nullptr);
  ASSERT_NE(firing, nullptr);
  ASSERT_NE(reopt, nullptr);
  ASSERT_NE(enact, nullptr);

  // Every leg is an ancestor-linked part of ONE tree under the root.
  auto root_of = [&](const SpanRecord* s) {
    int hops = 0;
    while (by_id.count(s->parent_span_id) != 0 && hops++ < 64) {
      s = by_id.at(s->parent_span_id);
    }
    return s;
  };
  const SpanRecord* root = root_of(hop);
  EXPECT_STREQ(root->name, "scenario3.request");
  EXPECT_EQ(root_of(op), root);
  EXPECT_EQ(root_of(firing), root);
  EXPECT_EQ(root_of(reopt), root);
  EXPECT_EQ(root_of(enact), root);
  EXPECT_STREQ(firing->name, "rule_firing");

  // The decision the firing produced is in the log, carries the gauge the
  // executor published, and joins back to this trace.
  bool found = false;
  for (const DecisionRecord& d : Tracer::Default().Decisions()) {
    if (!(d.trace_id == trace)) continue;
    found = true;
    EXPECT_NE(std::string(d.rule).find("build-divergence"),
              std::string::npos);
    EXPECT_NE(std::string(d.action).find("SWITCH"), std::string::npos);
    ASSERT_GE(d.gauge_count, 1);
    EXPECT_STREQ(d.gauges[0].metric, "build-divergence");
    EXPECT_GT(d.gauges[0].value, 1.0);  // observed/estimated divergence
  }
  EXPECT_TRUE(found);

  // And the whole epoch survives the Chrome export round trip.
  std::string json =
      obs::ToChromeTraceJson(spans, Tracer::Default().Decisions());
  auto parsed = obs::ParseChromeTraceJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->spans.size(), spans.size());

  Tracer::Default().Clear();
}

}  // namespace
}  // namespace dbm
