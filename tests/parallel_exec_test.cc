// Tests for the morsel-driven parallel plane: cursor, worker pool,
// serial/parallel equivalence, mid-query dop governance and fault
// containment.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "adapt/metrics.h"
#include "common/rng.h"
#include "obs/alloc_hook.h"
#include "query/paged_source.h"
#include "query/parallel.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

#include "serial_reference.h"

namespace dbm::query {
namespace {

using data::Relation;
using data::Schema;
using data::ValueType;

/// Probe-side table. `val` is always a multiple of 0.25 — an exact
/// binary fraction — so parallel sum-merge reassociation cannot change
/// the aggregate (float addition of binary fractions in this range is
/// exact in either order).
Relation MakeOrders(size_t rows, size_t people, uint64_t seed) {
  Relation rel("orders", Schema({{"person_id", ValueType::kInt},
                                 {"qty", ValueType::kInt},
                                 {"val", ValueType::kDouble},
                                 {"tag", ValueType::kString}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    int64_t person = static_cast<int64_t>(rng.Uniform(people));
    int64_t qty = static_cast<int64_t>(rng.Uniform(20));
    double val = 0.25 * static_cast<double>(rng.Uniform(400));
    rel.InsertUnchecked(Tuple({person, qty, val,
                               "o#" + std::to_string(i % 13)}));
  }
  return rel;
}

/// Build-side table: id is dense so most probes match; every third id is
/// withheld so some probes miss.
Relation MakePeople(size_t people, uint64_t seed) {
  Relation rel("people", Schema({{"id", ValueType::kInt},
                                 {"grp", ValueType::kInt},
                                 {"name", ValueType::kString}}));
  Rng rng(seed);
  for (size_t i = 0; i < people; ++i) {
    if (i % 3 == 2) continue;
    rel.InsertUnchecked(Tuple({static_cast<int64_t>(i),
                               static_cast<int64_t>(rng.Uniform(7)),
                               "p#" + std::to_string(i)}));
  }
  return rel;
}

// ---------------------------------------------------------------------------
// Morsel cursor
// ---------------------------------------------------------------------------

TEST(MorselCursorTest, PartitionsAllUnitsExactlyOnce) {
  MorselCursor cursor(100, 7);
  EXPECT_EQ(cursor.total_morsels(), 15u);
  std::vector<char> seen(100, 0);
  Morsel m;
  uint64_t count = 0;
  while (cursor.Next(&m)) {
    ++count;
    EXPECT_LT(m.begin, m.end);
    EXPECT_LE(m.end, 100u);
    for (size_t u = m.begin; u < m.end; ++u) {
      EXPECT_EQ(seen[u], 0) << "unit " << u << " covered twice";
      seen[u] = 1;
    }
  }
  EXPECT_EQ(count, 15u);
  EXPECT_TRUE(cursor.Exhausted());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 0), 0);
}

TEST(MorselCursorTest, PoisonStopsHandout) {
  MorselCursor cursor(1000, 10);
  Morsel m;
  ASSERT_TRUE(cursor.Next(&m));
  cursor.Poison();
  EXPECT_FALSE(cursor.Next(&m));
  EXPECT_TRUE(cursor.poisoned());
  EXPECT_TRUE(cursor.Exhausted());
}

TEST(MorselCursorTest, ConcurrentDrainCoversEverything) {
  MorselCursor cursor(10000, 13);
  std::atomic<uint64_t> units{0};
  std::atomic<uint64_t> morsels{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      Morsel m;
      while (cursor.Next(&m)) {
        units.fetch_add(m.end - m.begin);
        morsels.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(units.load(), 10000u);
  EXPECT_EQ(morsels.load(), cursor.total_morsels());
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryLaneExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  Status s = pool.Run(4, [&](size_t worker) {
    hits[worker].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPoolTest, WidthLimitsParticipation) {
  WorkerPool pool(4);
  std::set<size_t> seen;
  std::mutex mu;
  Status s = pool.Run(2, [&](size_t worker) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(worker);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(seen, (std::set<size_t>{0, 1}));
}

TEST(WorkerPoolTest, FirstErrorWinsAndPoolSurvives) {
  WorkerPool pool(4);
  Status s = pool.Run(4, [&](size_t worker) {
    if (worker == 2) return Status::Internal("lane 2 exploded");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("lane 2"), std::string::npos);
  // The pool is healthy for the next job.
  std::atomic<int> count{0};
  Status again = pool.Run(4, [&](size_t) {
    count.fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(count.load(), 4);
}

TEST(WorkerPoolTest, AccumulatesBusyTime) {
  WorkerPool pool(2);
  uint64_t before = pool.TotalBusyNs();
  EXPECT_TRUE(pool.Run(2, [](size_t) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_GT(pool.TotalBusyNs(), before);
}

// Pins the wait-state fix: time a worker spends blocked inside a
// declared wait scope (the merge barrier, a latch, a starved park) must
// accrue to StateNs(state), NOT to TotalBusyNs. The old accounting
// counted barrier-blocked workers as busy, which inflated
// exec.worker-util on barrier-bound plans and misled the dop governor.
TEST(WorkerPoolTest, BarrierWaitExcludedFromBusy) {
  WorkerPool pool(4);
  const uint64_t busy0 = pool.TotalBusyNs();
  const uint64_t barrier0 = pool.StateNs(obs::WaitState::kBarrier);
  std::atomic<int> waiting{0};
  std::atomic<bool> released{false};
  ASSERT_TRUE(pool.Run(4, [&](size_t worker) -> Status {
                    if (worker == 0) {
                      // Hold the "barrier" closed until everyone is
                      // provably inside their wait scope, then work 50ms.
                      while (waiting.load(std::memory_order_acquire) < 3) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                      }
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(50));
                      released.store(true, std::memory_order_release);
                    } else {
                      obs::WaitStateScope wait(obs::WaitState::kBarrier);
                      waiting.fetch_add(1, std::memory_order_acq_rel);
                      while (!released.load(std::memory_order_acquire)) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                      }
                    }
                    return Status::OK();
                  })
                  .ok());
  const uint64_t busy_delta = pool.TotalBusyNs() - busy0;
  const uint64_t barrier_delta =
      pool.StateNs(obs::WaitState::kBarrier) - barrier0;
  // Three workers each waited >= 50ms. Wait-as-busy accounting would
  // read >= 200ms busy; the fix leaves only worker 0's ~50ms of work.
  EXPECT_LT(busy_delta, 150'000'000u);
  EXPECT_GE(barrier_delta, 100'000'000u);
}

// ---------------------------------------------------------------------------
// Serial / parallel equivalence
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, ScanFilterMatchesSerial) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : {17u, 23u, 42u}) {
    Relation orders = MakeOrders(5000, 100, seed);
    ParallelPlan plan;
    plan.probe.mem = &orders;
    plan.probe.filter = Gt(Col(1), Lit(int64_t{9}));
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(ParallelExecTest, JoinProjectMatchesSerial) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : {17u, 23u, 42u}) {
    Relation orders = MakeOrders(4000, 120, seed);
    Relation people = MakePeople(120, seed + 1);
    ParallelPlan plan;
    plan.probe.mem = &orders;
    ParallelJoinStage stage;
    stage.build.mem = &people;
    stage.spec = JoinSpec{0, 0};  // people.id = orders.person_id
    plan.joins.push_back(std::move(stage));
    // Joined schema: people(id, grp, name) ++ orders(person_id, qty, val,
    // tag).
    plan.post_filter = Gt(Col(4), Lit(int64_t{2}));
    plan.project = {Col(1), Col(5), Col(2)};
    plan.project_schema = Schema({{"grp", ValueType::kInt},
                                  {"val", ValueType::kDouble},
                                  {"name", ValueType::kString}});
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(ParallelExecTest, JoinAggregateMatchesSerial) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : {17u, 23u, 42u}) {
    Relation orders = MakeOrders(6000, 80, seed);
    Relation people = MakePeople(80, seed + 1);
    ParallelPlan plan;
    plan.probe.mem = &orders;
    plan.probe.filter = Gt(Col(1), Lit(int64_t{1}));
    ParallelJoinStage stage;
    stage.build.mem = &people;
    stage.spec = JoinSpec{0, 0};
    plan.joins.push_back(std::move(stage));
    plan.group_by = {1};  // people.grp
    plan.aggs = {{AggFunc::kCount, 0, "n"},
                 {AggFunc::kSum, 5, "sum_val"},
                 {AggFunc::kMin, 5, "min_val"},
                 {AggFunc::kMax, 5, "max_val"},
                 {AggFunc::kAvg, 4, "avg_qty"}};
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(ParallelExecTest, TwoJoinChainMatchesSerial) {
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(3000, 60, 42);
  Relation people = MakePeople(60, 43);
  Relation groups("groups", Schema({{"gid", ValueType::kInt},
                                    {"label", ValueType::kString}}));
  for (int64_t g = 0; g < 7; ++g) {
    groups.InsertUnchecked(Tuple({g, "g#" + std::to_string(g)}));
  }
  ParallelPlan plan;
  plan.probe.mem = &orders;
  ParallelJoinStage s1;
  s1.build.mem = &people;
  s1.spec = JoinSpec{0, 0};  // people.id = orders.person_id
  plan.joins.push_back(std::move(s1));
  // Pipeline after stage 1: people(id, grp, name) ++ orders(...).
  ParallelJoinStage s2;
  s2.build.mem = &groups;
  s2.spec = JoinSpec{0, 1};  // groups.gid = people.grp
  plan.joins.push_back(std::move(s2));
  ExpectMatchesSerialAtEveryDop(plan);
}

TEST(ParallelExecTest, PagedScanMatchesMemScan) {
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(4000, 70, 23);

  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  auto buffer = std::make_shared<storage::BufferManager>("buf", 32,
                                                         /*shards=*/4);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(policy);
  auto paged = storage::PagedRelation::Load(orders, buffer.get(), disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  ParallelPlan mem_plan;
  mem_plan.probe.mem = &orders;
  mem_plan.probe.filter = Gt(Col(1), Lit(int64_t{4}));
  std::multiset<std::string> reference = Canon(SerialRows(mem_plan));

  ParallelPlan paged_plan;
  paged_plan.probe.paged = paged->get();
  paged_plan.probe.filter = Gt(Col(1), Lit(int64_t{4}));
  ParallelOptions opt;
  opt.morsel_pages = 2;
  ExpectMatchesAtEveryDop(paged_plan, reference, opt);
  EXPECT_TRUE(buffer->CheckInvariants().ok());
}

TEST(ParallelExecTest, PagedScanGetsEachPageOnceAndAllocatesNothing) {
  // A paged morsel loads a page at a time: one getpage per page scanned
  // (probe and build side alike), decoded straight into arena columns, so
  // once the arenas are warm a probe morsel makes no operator-new call.
  // The pool holds every page, so no miss path runs after the warm run.
  obs::InstallCountingAllocator();
  ASSERT_TRUE(obs::AllocCountingInstalled());
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(20000, 300, 42);
  Relation people = MakePeople(300, 43);

  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  auto buffer = std::make_shared<storage::BufferManager>("buf", 512,
                                                         /*shards=*/4);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(policy);
  auto paged_orders =
      storage::PagedRelation::Load(orders, buffer.get(), disk.get());
  ASSERT_TRUE(paged_orders.ok()) << paged_orders.status().ToString();
  auto paged_people =
      storage::PagedRelation::Load(people, buffer.get(), disk.get());
  ASSERT_TRUE(paged_people.ok()) << paged_people.status().ToString();
  const size_t probe_pages = (*paged_orders)->pages();
  const size_t build_pages = (*paged_people)->pages();
  ASSERT_LE(probe_pages + build_pages, buffer->frame_count());

  ParallelPlan scan_agg;
  scan_agg.probe.paged = paged_orders->get();
  scan_agg.probe.filter = Gt(Col(1), Lit(int64_t{3}));
  scan_agg.group_by = {3};  // tag
  scan_agg.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 2, "s"}};

  // Joined schema: people(id, grp, name) ++ orders(person_id, qty, val,
  // tag).
  ParallelPlan join_agg;
  join_agg.probe.paged = paged_orders->get();
  ParallelJoinStage stage;
  stage.build.paged = paged_people->get();
  stage.spec = JoinSpec{0, 0};
  join_agg.joins.push_back(std::move(stage));
  join_agg.group_by = {1};  // people.grp
  join_agg.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kMax, 5, "max"}};

  WorkerPool pool(8);
  // Give every worker's scratch arena a chunk that holds a whole morsel,
  // so the bar measures the load path rather than which worker the
  // scheduler happened to leave idle during the warm run.
  for (size_t w = 0; w < pool.size(); ++w) {
    pool.ScratchArena(w).Allocate(size_t{4} << 20);
    pool.ScratchArena(w).Reset();
  }
  const std::pair<const ParallelPlan*, size_t> cases[] = {
      {&scan_agg, probe_pages}, {&join_agg, probe_pages + build_pages}};
  for (const auto& [plan, pages] : cases) {
    std::multiset<std::string> reference = Canon(SerialRows(*plan));
    ASSERT_FALSE(reference.empty());
    for (size_t dop : {1u, 2u, 4u, 8u}) {
      ParallelOptions opt;
      opt.dop = dop;
      opt.pool = &pool;
      std::vector<Tuple> warm;
      ASSERT_TRUE(ExecuteParallel(*plan, &warm, opt).ok()) << "dop=" << dop;
      const uint64_t gets_before = buffer->stats().gets;
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(*plan, &out, opt);
      ASSERT_TRUE(stats.ok()) << "dop=" << dop << ": "
                              << stats.status().ToString();
      EXPECT_EQ(buffer->stats().gets - gets_before, pages) << "dop=" << dop;
      EXPECT_EQ(stats->steady_allocs, 0u) << "dop=" << dop;
      EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
    }
  }
  EXPECT_TRUE(buffer->CheckInvariants().ok());
}

TEST(ParallelExecTest, ScanWithoutInputIsRejectedAtEveryDop) {
  // Workers and the coordinator both dereference every scan, so a plan
  // whose probe or build scan has neither a paged nor a mem input is an
  // argument error before any work starts — never a crash.
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(500, 20, 17);
  ParallelPlan no_build;
  no_build.probe.mem = &orders;
  ParallelJoinStage stage;
  stage.spec = JoinSpec{0, 0};
  no_build.joins.push_back(std::move(stage));
  ParallelPlan no_probe;

  WorkerPool pool(4);
  for (size_t dop : {1u, 2u, 4u}) {
    ParallelOptions opt;
    opt.dop = dop;
    opt.pool = &pool;
    for (const ParallelPlan* plan : {&no_build, &no_probe}) {
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(*plan, &out, opt);
      ASSERT_FALSE(stats.ok()) << "dop=" << dop;
      EXPECT_TRUE(stats.status().IsInvalidArgument())
          << "dop=" << dop << ": " << stats.status().ToString();
      EXPECT_TRUE(out.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Mid-query dop governance
// ---------------------------------------------------------------------------

/// A disk whose page reads wait, once Close() has run, until Open() does.
/// The governor tests open it from their governor, so no worker gets past
/// its first page miss before the coordinator's first sample, however the
/// threads are scheduled.
class GatedDisk : public storage::DiskComponent {
 public:
  Status Read(storage::PageId id, storage::Page* out) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return open_; });
    }
    return DiskComponent::Read(id, out);
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
};

/// A relation on the pages of a closed GatedDisk, behind a 16-frame pool:
/// the load leaves at most its last 16 pages cached, and a scan takes its
/// pages in order from the first, so every worker's first read goes to
/// the disk.
struct GatedPages {
  std::shared_ptr<GatedDisk> disk = std::make_shared<GatedDisk>();
  std::shared_ptr<storage::LruPolicy> policy =
      std::make_shared<storage::LruPolicy>();
  std::shared_ptr<storage::BufferManager> buffer =
      std::make_shared<storage::BufferManager>("buf", 16, /*shards=*/4);
  std::unique_ptr<storage::PagedRelation> paged;  // null if the load failed

  explicit GatedPages(const Relation& rel) {
    buffer->FindPort("disk")->SetTarget(disk);
    buffer->FindPort("policy")->SetTarget(policy);
    auto loaded = storage::PagedRelation::Load(rel, buffer.get(), disk.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (!loaded.ok()) return;
    paged = std::move(*loaded);
    EXPECT_GT(paged->pages(), 16u * 4);
    disk->Close();
  }
};

TEST(ParallelExecTest, GovernorScalesUpMidQuery) {
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(60000, 100, 17);
  GatedPages gated(orders);
  ASSERT_NE(gated.paged, nullptr);
  ParallelPlan plan;
  plan.probe.paged = gated.paged.get();
  plan.probe.filter = Gt(Col(1), Lit(int64_t{0}));

  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 2;
  opt.dop_max = 4;
  opt.pool = &pool;
  opt.morsel_pages = 1;  // many morsels: the query outlives the governor
  opt.govern_interval = std::chrono::microseconds(100);
  std::atomic<uint64_t> calls{0};
  opt.governor = [&](const GovernorSample& sample) -> size_t {
    calls.fetch_add(1);
    gated.disk->Open();
    EXPECT_EQ(sample.dop_max, 4u);
    return 4;  // always ask for the ceiling
  };

  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(stats->samples, 1u) << "query finished before the first "
                                   "governor sample";
  EXPECT_GE(calls.load(), 1u);
  EXPECT_EQ(stats->dop_initial, 2u);
  EXPECT_EQ(stats->dop_final, 4u);
  EXPECT_GE(stats->dop_switches, 1u);

  // Same rows as the serial plan regardless of the mid-query switch.
  ParallelPlan mem_plan = plan;
  mem_plan.probe.paged = nullptr;
  mem_plan.probe.mem = &orders;
  EXPECT_EQ(Canon(out), Canon(SerialRows(mem_plan)));
  EXPECT_TRUE(gated.buffer->CheckInvariants().ok());
}

TEST(ParallelExecTest, PublishesExecMetricsOnBus) {
  ScopedFaultSpec quiet("");
  Relation orders = MakeOrders(60000, 100, 23);
  GatedPages gated(orders);
  ASSERT_NE(gated.paged, nullptr);
  ParallelPlan plan;
  plan.probe.paged = gated.paged.get();

  adapt::MetricBus bus;
  WorkerPool pool(2);
  ParallelOptions opt;
  opt.dop = 2;
  opt.pool = &pool;
  opt.morsel_pages = 1;
  opt.govern_interval = std::chrono::microseconds(100);
  opt.bus = &bus;
  // Opens the disk and leaves the dop alone.
  opt.governor = [&](const GovernorSample&) -> size_t {
    gated.disk->Open();
    return 0;
  };
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_TRUE(stats.ok());
  ASSERT_GE(stats->samples, 1u);
  auto dop = bus.Get("exec.dop");
  auto morsels = bus.Get("exec.morsels");
  auto util = bus.Get("exec.worker-util");
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(morsels.ok());
  ASSERT_TRUE(util.ok());
  EXPECT_EQ(*dop, 2.0);
  // Workers are saturated for the whole scan (in-flight work counts —
  // the governor reads busy time live, not only after the job ends).
  EXPECT_GT(*util, 0.0);
  EXPECT_LE(*util, 100.0);
}

// ---------------------------------------------------------------------------
// Fault containment
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, InjectedMorselFaultFailsQueryCleanly) {
  Relation orders = MakeOrders(5000, 60, 42);
  ParallelPlan plan;
  plan.probe.mem = &orders;

  WorkerPool pool(4);
  {
    ScopedFaultSpec chaos("query.morsel:error@1", 7);
    ParallelOptions opt;
    opt.dop = 4;
    opt.pool = &pool;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(plan, &out, opt);
    ASSERT_FALSE(stats.ok());
    EXPECT_NE(stats.status().ToString().find("injected"), std::string::npos)
        << stats.status().ToString();
  }
  // Disarmed again: the pool was not wedged by the failed query.
  {
    ScopedFaultSpec quiet("");
    ParallelOptions opt;
    opt.dop = 4;
    opt.pool = &pool;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(plan, &out, opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(out.size(), orders.size());
  }
}

}  // namespace
}  // namespace dbm::query
