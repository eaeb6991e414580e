// A9 — morsel-driven parallel execution: dop scaling on the vCPU pool.
//
// Two workloads over the same generated tables: a filtered scan + grouped
// aggregation, and the headline join (orders ⋈ people, grouped
// aggregation on top). Each runs once on the serial executor over
// BuildSerial()'s tree — the reference — and then on the columnar batch
// engine at dop 1, 2, 4 and 8 on an 8-worker pool. Every result set is
// order-normalized and compared against the serial one, so a wrong
// parallel answer fails the bench before any timing is read. Speedups are
// against the serial executor: the single-threaded Volcano baseline, not
// the batch engine on one worker. The columnar views are built before
// anything is timed.
//
// Two assertions ride along:
//   * scaling — >= 2.5x the serial executor at dop=4 on the join
//     workload, asserted only when the host actually has >= 4 hardware
//     threads (a 1-vCPU container reports its numbers without gating);
//   * allocation-freedom — after the curves have sized the per-worker
//     arenas, a steady-state mem-scan aggregation query performs ZERO
//     operator-new calls inside worker morsel bodies (counted by the
//     thread-local alloc hook; enforced whenever the counting allocator
//     is linked in).
//
// Wall-clock figures are host noise (nogated in the committed baseline);
// the deterministic gate is query.pexec.work_cycles — rows flowed plus
// rows built, the same at every dop.

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "query/parallel.h"

namespace {

using namespace dbm;
using data::Relation;
using data::Schema;
using data::ValueType;

constexpr size_t kOrders = 400000;
constexpr size_t kPeople = 2000;
constexpr uint64_t kSeed = 42;

Relation MakeOrders() {
  Relation rel("orders", Schema({{"person_id", ValueType::kInt},
                                 {"qty", ValueType::kInt},
                                 {"val", ValueType::kDouble}}));
  Rng rng(kSeed);
  for (size_t i = 0; i < kOrders; ++i) {
    rel.InsertUnchecked(query::Tuple(
        {static_cast<int64_t>(rng.Uniform(kPeople)),
         static_cast<int64_t>(rng.Uniform(50)),
         0.25 * static_cast<double>(rng.Uniform(1000))}));
  }
  return rel;
}

Relation MakePeople() {
  Relation rel("people", Schema({{"id", ValueType::kInt},
                                 {"grp", ValueType::kInt},
                                 {"name", ValueType::kString}}));
  Rng rng(kSeed + 1);
  for (size_t i = 0; i < kPeople; ++i) {
    rel.InsertUnchecked(query::Tuple({static_cast<int64_t>(i),
                                      static_cast<int64_t>(rng.Uniform(32)),
                                      "p#" + std::to_string(i)}));
  }
  return rel;
}

std::multiset<std::string> Canon(const std::vector<query::Tuple>& rows) {
  std::multiset<std::string> out;
  for (const query::Tuple& t : rows) out.insert(t.ToString());
  return out;
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct DopPoint {
  size_t dop = 0;
  double millis = 0;
  double speedup = 1.0;  // serial ms / this run's ms
  query::ParallelStats stats;
};

struct Curve {
  double serial_ms = 0;
  std::vector<DopPoint> points;  // empty on any error or mismatch
};

/// Times the serial reference, then runs `plan` at each dop and holds
/// every result set to the serial one.
Curve RunCurve(const query::ParallelPlan& plan, query::WorkerPool* pool,
               const std::vector<size_t>& dops) {
  Curve curve;
  auto root = query::BuildSerial(plan);
  if (!root.ok()) {
    std::printf("  serial plan failed: %s\n",
                root.status().ToString().c_str());
    return curve;
  }
  std::vector<query::Tuple> serial_out;
  auto t0 = std::chrono::steady_clock::now();
  auto serial = query::Execute(root->get(), &serial_out);
  curve.serial_ms = MillisSince(t0);
  if (!serial.ok()) {
    std::printf("  serial reference failed: %s\n",
                serial.status().ToString().c_str());
    return curve;
  }
  const std::multiset<std::string> reference = Canon(serial_out);

  std::vector<DopPoint> points;
  for (size_t dop : dops) {
    query::ParallelOptions opt;
    opt.dop = dop;
    opt.pool = pool;
    std::vector<query::Tuple> out;
    t0 = std::chrono::steady_clock::now();
    auto stats = query::ExecuteParallel(plan, &out, opt);
    DopPoint p;
    p.dop = dop;
    p.millis = MillisSince(t0);
    if (!stats.ok()) {
      std::printf("  dop=%zu failed: %s\n", dop,
                  stats.status().ToString().c_str());
      return curve;
    }
    if (Canon(out) != reference) {
      std::printf("  dop=%zu result set diverges from serial!\n", dop);
      return curve;
    }
    p.speedup = curve.serial_ms / std::max(p.millis, 1e-9);
    p.stats = *stats;
    points.push_back(p);
  }
  curve.points = std::move(points);
  return curve;
}

void PrintCurve(const char* title, const Curve& curve) {
  std::printf("\n%s\n", title);
  bench::Table table({8, 12, 10, 12, 10, 10});
  table.Row({"dop", "time ms", "speedup", "morsels", "batches", "util %"});
  table.Rule();
  table.Row({"serial", bench::Fmt("%.1f", curve.serial_ms), "1.00x", "-",
             "-", "-"});
  for (const DopPoint& p : curve.points) {
    table.Row({bench::FmtU(p.dop), bench::Fmt("%.1f", p.millis),
               bench::Fmt("%.2fx", p.speedup), bench::FmtU(p.stats.morsels),
               bench::FmtU(p.stats.batches),
               bench::Fmt("%.0f", p.stats.worker_util)});
  }
  table.Rule();
}

}  // namespace

int main(int argc, char** argv) {
  dbm::bench::Init(&argc, argv);
  bench::Header("A9", "morsel-driven parallel execution: dop scaling");

  // Timing and the zero-alloc assertion must not absorb injected faults
  // (the chaos job arms query.morsel process-wide).
  (void)fault::Injector::Default().Configure("", 0);
  obs::InstallCountingAllocator();

  Relation orders = MakeOrders();
  Relation people = MakePeople();
  // Build the lazily cached columnar views up front, so no timed run
  // pays for them.
  (void)orders.Columnar();
  (void)people.Columnar();
  const std::vector<size_t> dops = {1, 2, 4, 8};
  query::WorkerPool pool(8);

  // Workload 1: filtered scan + grouped aggregation.
  query::ParallelPlan scan_plan;
  scan_plan.probe.mem = &orders;
  scan_plan.probe.filter = query::Gt(query::Col(1), query::Lit(int64_t{4}));
  scan_plan.group_by = {0};
  scan_plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                    {query::AggFunc::kSum, 2, "sum_val"}};
  Curve scan_curve = RunCurve(scan_plan, &pool, dops);
  if (scan_curve.points.empty()) return 1;
  PrintCurve("scan + aggregate (400k rows)", scan_curve);

  // Workload 2 (the headline): join + grouped aggregation.
  query::ParallelPlan join_plan;
  join_plan.probe.mem = &orders;
  query::ParallelJoinStage stage;
  stage.build.mem = &people;
  stage.spec = query::JoinSpec{0, 0};  // people.id = orders.person_id
  join_plan.joins.push_back(std::move(stage));
  // Joined schema: people(id, grp, name) ++ orders(person_id, qty, val).
  join_plan.group_by = {1};
  join_plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                    {query::AggFunc::kSum, 5, "sum_val"},
                    {query::AggFunc::kMax, 4, "max_qty"}};
  Curve join_curve = RunCurve(join_plan, &pool, dops);
  if (join_curve.points.empty()) return 1;
  PrintCurve("join + aggregate (400k ⋈ 2k)", join_curve);

  // Allocation-freedom: the curves above warmed every worker's arenas
  // (chunks are retained across queries), so a steady-state run of the
  // mem-scan aggregation must do zero operator-new calls inside worker
  // morsel bodies.
  query::ParallelOptions warm;
  warm.dop = 4;
  warm.pool = &pool;
  std::vector<query::Tuple> warm_out;
  auto warm_stats = query::ExecuteParallel(scan_plan, &warm_out, warm);
  if (!warm_stats.ok()) return 1;
  const uint64_t steady = warm_stats->steady_allocs;
  const bool counting = obs::AllocCountingInstalled();
  if (counting) {
    bench::Note(bench::Fmt("steady-state morsel-body allocations: %.0f",
                           static_cast<double>(steady)) +
                " (bar: 0 — arenas retained, hot path allocation-free)");
  } else {
    bench::Note("counting allocator not linked; zero-alloc bar reported, "
                "not enforced");
  }

  double speedup4 = 1.0;
  for (const DopPoint& p : join_curve.points) {
    if (p.dop == 4) speedup4 = p.speedup;
  }

  obs::Registry& reg = obs::Registry::Default();
  reg.GetGauge("bench.pexec.scan_ms_serial").Set(scan_curve.serial_ms);
  reg.GetGauge("bench.pexec.join_ms_serial").Set(join_curve.serial_ms);
  for (const DopPoint& p : scan_curve.points) {
    reg.GetGauge("bench.pexec.scan_ms_dop" + std::to_string(p.dop))
        .Set(p.millis);
  }
  for (const DopPoint& p : join_curve.points) {
    reg.GetGauge("bench.pexec.join_ms_dop" + std::to_string(p.dop))
        .Set(p.millis);
    reg.GetGauge("bench.pexec.join_speedup_dop" + std::to_string(p.dop))
        .Set(p.speedup);
  }
  reg.GetGauge("bench.pexec.steady_allocs").Set(static_cast<double>(steady));

  unsigned hw = std::thread::hardware_concurrency();
  reg.GetGauge("bench.pexec.hw_threads").Set(static_cast<double>(hw));
  bool gate = hw >= 4;
  if (gate) {
    bench::Note(bench::Fmt("dop=4 join speedup over serial %.2fx",
                           speedup4) +
                " (bar: >= 2.5x on this >=4-thread host)");
  } else {
    bench::Note(bench::Fmt("host has %.0f hardware threads", hw) +
                "; dop=4 bar (>= 2.5x over serial) reported, not enforced");
  }

  bench::MetricsSidecar("bench_parallel_exec");

  int rc = 0;
  if (gate && speedup4 < 2.5) {
    std::printf("FAIL: dop=4 join speedup over serial %.2fx < 2.5x\n",
                speedup4);
    rc = 1;
  }
  if (counting && steady != 0) {
    std::printf("FAIL: steady-state batch path performed %llu operator-new "
                "calls (bar: 0)\n",
                static_cast<unsigned long long>(steady));
    rc = 1;
  }
  return rc;
}
