// Tests for the per-query profiling plane: EXPLAIN ANALYZE attribution
// invariants (per-node cycles/rows/allocs sum to the query totals, the
// serial executor's tree at every dop), worker wait-state accounting,
// failure attribution, and the profiles relation / /obs/profile endpoint
// round trips.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/observatory.h"
#include "obs/profile.h"
#include "query/parallel.h"

#include "serial_reference.h"

namespace dbm::query {
namespace {

using data::Relation;
using data::Schema;
using data::ValueType;

Relation MakeOrders(size_t rows, size_t people, uint64_t seed) {
  Relation rel("orders", Schema({{"person_id", ValueType::kInt},
                                 {"qty", ValueType::kInt},
                                 {"val", ValueType::kDouble}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    rel.InsertUnchecked(Tuple({static_cast<int64_t>(rng.Uniform(people)),
                               static_cast<int64_t>(rng.Uniform(50)),
                               0.25 * static_cast<double>(rng.Uniform(400))}));
  }
  return rel;
}

Relation MakePeople(size_t people, uint64_t seed) {
  Relation rel("people", Schema({{"id", ValueType::kInt},
                                 {"grp", ValueType::kInt},
                                 {"name", ValueType::kString}}));
  Rng rng(seed);
  for (size_t i = 0; i < people; ++i) {
    rel.InsertUnchecked(Tuple({static_cast<int64_t>(i),
                               static_cast<int64_t>(rng.Uniform(9)),
                               "p#" + std::to_string(i)}));
  }
  return rel;
}

/// Joined layout is [build cols, probe cols]: [id, grp, name, person_id,
/// qty, val]. Filtered probe scan so the profile grows a filter node.
ParallelPlan JoinAggPlan(const Relation& orders, const Relation& people) {
  ParallelPlan plan;
  plan.probe.mem = &orders;
  plan.probe.filter = Gt(Col(1), Lit(int64_t{4}));
  ParallelJoinStage stage;
  stage.build.mem = &people;
  stage.spec = JoinSpec{0, 0};
  plan.joins.push_back(std::move(stage));
  plan.group_by = {1};
  plan.aggs = {{AggFunc::kCount, 0, "n"},
               {AggFunc::kSum, 5, "sum_val"},
               {AggFunc::kMax, 4, "max_qty"}};
  return plan;
}

/// The dop-invariant face of a profile: shape, names, row flow and work
/// cycles must be identical; allocs/pages/morsels/host time are what the
/// particular run did and are checked via the sum invariants instead.
void ExpectSameShape(const ProfileNode& a, const ProfileNode& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.rows_in, b.rows_in) << a.name;
  EXPECT_EQ(a.rows_out, b.rows_out) << a.name;
  EXPECT_EQ(a.work_cycles, b.work_cycles) << a.name;
  ASSERT_EQ(a.children.size(), b.children.size()) << a.name;
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameShape(a.children[i], b.children[i]);
  }
}

void ExpectSumsToTotals(const QueryProfile& p) {
  EXPECT_EQ(p.SumCycles(), p.total_cycles);
  EXPECT_EQ(p.SumAllocs(), p.total_allocs);
  EXPECT_EQ(p.SumPages(), p.total_pages);
}

QueryProfile ProfiledRun(const ParallelPlan& plan, size_t dop,
                         WorkerPool* pool, uint64_t* rows = nullptr) {
  QueryProfile profile;
  profile.query = "profiled-join";
  ParallelOptions opt;
  opt.dop = dop;
  opt.pool = pool;
  opt.profile = &profile;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  EXPECT_TRUE(stats.ok()) << "dop=" << dop << ": "
                          << stats.status().ToString();
  if (stats.ok() && rows != nullptr) *rows = stats->rows;
  return profile;
}

/// The serial executor's profile of BuildSerial(plan): the reference
/// tree every dop is held to.
QueryProfile SerialProfile(const ParallelPlan& plan, uint64_t* rows) {
  QueryProfile profile;
  profile.query = "serial";
  auto root = BuildSerial(plan);
  EXPECT_TRUE(root.ok()) << root.status().ToString();
  if (!root.ok()) return profile;
  ExecOptions opt;
  opt.profile = &profile;
  std::vector<Tuple> out;
  auto stats = Execute(root->get(), &out, opt);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats.ok()) *rows = stats->rows;
  return profile;
}

TEST(ProfileTest, SameTreeAtEveryDop) {
  obs::InstallCountingAllocator();
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(20000, 300, 7);
  Relation people = MakePeople(300, 8);
  ParallelPlan plan = JoinAggPlan(orders, people);
  WorkerPool pool(8);

  uint64_t serial_rows = 0;
  QueryProfile serial = SerialProfile(plan, &serial_rows);
  EXPECT_EQ(serial.total_rows, serial_rows);
  EXPECT_EQ(serial.root.name, "aggregate");
  ASSERT_EQ(serial.root.children.size(), 1u);
  EXPECT_EQ(serial.root.children[0].name, "hash-join");
  ASSERT_EQ(serial.root.children[0].children.size(), 2u);
  EXPECT_EQ(serial.root.children[0].children[0].name, "scan(people)");
  EXPECT_EQ(serial.root.children[0].children[1].name,
            "filter(($1 > 4))");
  ExpectSumsToTotals(serial);

  for (size_t dop : {1u, 2u, 4u, 8u}) {
    QueryProfile par = ProfiledRun(plan, dop, &pool);
    EXPECT_EQ(par.dop, dop);
    EXPECT_EQ(par.total_rows, serial.total_rows) << "dop=" << dop;
    EXPECT_EQ(par.total_cycles, serial.total_cycles) << "dop=" << dop;
    ExpectSameShape(par.root, serial.root);
    ExpectSumsToTotals(par);
    // The counting allocator is linked into this binary, so a join that
    // builds hash tables cannot have allocated nothing.
    EXPECT_GT(par.total_allocs, 0u) << "dop=" << dop;
  }
}

TEST(ProfileTest, SerialExecutorFillsProfile) {
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(5000, 100, 11);
  Relation people = MakePeople(100, 12);
  ParallelPlan plan = JoinAggPlan(orders, people);

  uint64_t rows = 0;
  QueryProfile profile = SerialProfile(plan, &rows);
  EXPECT_EQ(profile.total_rows, rows);
  EXPECT_EQ(profile.root.name, "aggregate");
  ExpectSumsToTotals(profile);
  EXPECT_GT(profile.host_ns, 0u);
}

TEST(ProfileTest, RenderersCarryTheTree) {
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(5000, 100, 13);
  Relation people = MakePeople(100, 14);
  ParallelPlan plan = JoinAggPlan(orders, people);
  WorkerPool pool(4);
  QueryProfile profile = ProfiledRun(plan, 4, &pool);

  const std::string text = profile.ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE profiled-join (dop=4)"),
            std::string::npos);
  EXPECT_NE(text.find("hash-join"), std::string::npos);
  EXPECT_NE(text.find("totals:"), std::string::npos);
  EXPECT_NE(text.find("waits:"), std::string::npos);

  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"name\":\"hash-join\""), std::string::npos);
  EXPECT_NE(json.find("\"total_cycles\":"), std::string::npos);
  EXPECT_NE(json.find("\"barrier_ns\":"), std::string::npos);

  const std::string collapsed = profile.ToCollapsed();
  EXPECT_NE(collapsed.find("profiled-join;aggregate;hash-join"),
            std::string::npos);
}

TEST(ProfileTest, WaitStateAccountingAcrossSeeds) {
  ScopedFaultSpec quiet("");
  WorkerPool pool(8);
  for (uint64_t seed : {17u, 23u, 42u}) {
    Relation orders = MakeOrders(30000, 200, seed);
    // Build side far smaller than one morsel: a single worker scans it
    // while the other three wait at the stage barrier, so the profile
    // must show barrier time — and show it as wait, not work.
    Relation people = MakePeople(200, seed + 1);
    ParallelPlan plan = JoinAggPlan(orders, people);
    QueryProfile profile = ProfiledRun(plan, 4, &pool);
    ExpectSumsToTotals(profile);
    EXPECT_GT(profile.running_ns, 0u) << "seed=" << seed;
    EXPECT_GT(profile.barrier_ns, 0u) << "seed=" << seed;
    EXPECT_EQ(profile.error, "") << "seed=" << seed;
  }
  // The coordinator published the pool ledgers as gauges.
  obs::Registry& reg = obs::Registry::Default();
  EXPECT_GT(reg.GetGauge("proc.worker.running_ns").value(), 0.0);
  EXPECT_GT(reg.GetGauge("proc.worker.barrier_ns").value(), 0.0);
  EXPECT_GE(reg.GetGauge("proc.worker.idle_ns").value(), 0.0);
}

TEST(ProfileTest, InjectedFaultIsAttributed) {
  obs::ProfilePlane::Default().Clear();
  ScopedFaultSpec chaos("query.morsel:error@1");
  Relation orders = MakeOrders(5000, 100, 21);
  Relation people = MakePeople(100, 22);
  ParallelPlan plan = JoinAggPlan(orders, people);
  WorkerPool pool(4);

  QueryProfile profile;
  profile.query = "doomed";
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  opt.profile = &profile;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(profile.error.find("query.morsel"), std::string::npos)
      << profile.error;
  EXPECT_EQ(profile.failed_phase.rfind("build", 0), 0u)
      << profile.failed_phase;
  // The partial profile still reached the plane, error and all.
  bool found = false;
  for (const auto& q : obs::ProfilePlane::Default().Queries()) {
    if (q.query == "doomed" && !q.error.empty()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProfileTest, ProfilesRelationAndEndpoint) {
  obs::ProfilePlane& plane = obs::ProfilePlane::Default();
  plane.Clear();
  obs::RequestProfile req;
  req.at_us = 1000;
  req.queue_us = 40;
  req.dispatch_us = 3;
  req.exec_us = 120;
  req.total_us = 163;
  req.served = true;
  req.SetResource("/orders/q1");
  plane.RecordRequest(req);

  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(5000, 100, 31);
  Relation people = MakePeople(100, 32);
  ParallelPlan plan = JoinAggPlan(orders, people);
  WorkerPool pool(4);
  (void)ProfiledRun(plan, 4, &pool);

  // Tabular face: the request ring as a relation...
  data::Relation rel = obs::ToRelation(obs::ProfilesTable(plane));
  ASSERT_EQ(rel.rows().size(), 1u);
  // ...and through the engine's own query endpoint.
  auto q = obs::ObservatoryQuery("profiles where total_us > 100");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->find("/orders/q1"), std::string::npos);

  auto json = obs::ServeObservatory("/obs/profile", 2000);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"requests\""), std::string::npos);
  EXPECT_NE(json->find("\"queries\""), std::string::npos);
  EXPECT_NE(json->find("profiled-join"), std::string::npos);

  auto prom = obs::ServeObservatory("/obs/profile?fmt=prom", 2000);
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom->find("profile_request_queue_us"), std::string::npos);
  EXPECT_EQ(prom->find("proc_worker"), std::string::npos)
      << "prom view must be narrowed to profile.*";

  auto collapsed = obs::ServeObservatory("/obs/profile?fmt=collapsed", 2000);
  ASSERT_TRUE(collapsed.ok()) << collapsed.status().ToString();
  EXPECT_NE(collapsed->find("profiled-join;aggregate"), std::string::npos);

  EXPECT_FALSE(obs::ServeObservatory("/obs/profile?fmt=xml", 2000).ok());
}

}  // namespace
}  // namespace dbm::query
