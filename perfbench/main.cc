// perfbench: host-time benchmark over the real request path
//
//   client → FrontDoor → ORB → query → buffer → WAL → disk
//
// Usage:
//   perfbench --workload analytics|ingest|flashcrowd --seed N
//             --seconds S --trace 0|1 [--data-dir DIR]
//
// One run sets the workload up several times (setup_s is the median),
// warms the last set-up, then drives seeded closed-loop client sessions
// through the front door for S host seconds, drains, and checks every
// output. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it runs an untraced and a traced phase (S/2 each, fresh
// set-up for both) and reports the per-layer metrics from the traced
// one, the layer self-time breakdown and the tracing overhead. The last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check prints it with "correct": false and exits 1.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/relation.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "query/pool.h"
#include "spans.h"
#include "stats.h"
#include "store.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {
namespace {

using namespace dbm;

constexpr size_t kOrders = 400000;
constexpr size_t kPeople = 2000;
constexpr double kZipf = 0.5;
constexpr size_t kTemplates = 64 * IngestBackend::kRowsPerWrite;
constexpr size_t kMaxSpansWritten = 1 << 20;  // bounds the trace file
// The driver's own work between loop slices, outside every span, must
// stay under this share of the traced wall time.
constexpr double kMaxUncoveredShare = 0.01;
// Sessions re-issue almost at once: every session always has a request
// in the building, so the host never waits on simulated think time.
constexpr SimTime kThink = Millis(1);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "0") != 0;
    } else if (key == "--data-dir") {
      a->data_dir = val;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  return (a->workload == "analytics" || a->workload == "ingest" ||
          a->workload == "flashcrowd") &&
         a->seconds > 0;
}

/// Everything one measured phase needs, set up from the seed.
struct Instance {
  data::Relation orders;
  data::Relation people;
  data::Relation templates;
  std::unique_ptr<Store> store;
  std::unique_ptr<AnalyticsBackend> analytics;
  std::unique_ptr<IngestBackend> ingest;
  std::unique_ptr<World> world;
  uint64_t user_bytes = 0;  // encoded bytes of every stored row
};

uint64_t EncodedBytes(const data::Relation& rel) {
  uint64_t n = 0;
  for (const data::Tuple& t : rel.rows()) n += storage::EncodeTuple(t).size();
  return n;
}

/// Deletes what an earlier set-up or run left in the data directory and
/// waits until the filesystem has committed the deletion. The filesystem
/// may discard freed blocks at that commit, which can take as long as
/// the writes did; it must not land inside a timed phase.
void ClearDataDir(const Args& args) {
  std::error_code ec;
  std::filesystem::remove_all(args.data_dir + "/store", ec);
  std::filesystem::remove_all(args.data_dir + "/blackbox.telem", ec);
  const int fd = ::open(args.data_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// Data generation, durable bulk load, checkpoint and world construction:
/// what setup_s times. The warm-up (WarmUp below) is timed apart.
Result<std::unique_ptr<Instance>> SetUp(const Args& args,
                                        query::WorkerPool* pool,
                                        SpanLog* spans) {
  auto inst = std::make_unique<Instance>();
  WorldOptions wo;
  wo.seed = args.seed;
  wo.pool = pool;
  if (args.workload == "flashcrowd") {
    // 4096 closed-loop sessions: several times what two 8-slot nodes
    // serve, so shedding, batching and the black box do the work.
    wo.flashcrowd = true;
    wo.sessions = 4096;
    wo.think_mean = Millis(200);
    wo.telemetry_dir = args.data_dir + "/blackbox.telem";
  } else {
    inst->orders = data::gen::Orders(kOrders, kPeople, kZipf, args.seed);
    Store::Options so;
    so.dir = args.data_dir + "/store";
    if (args.workload == "analytics") {
      // A pool larger than the data: every get hits after warm-up.
      inst->people = data::gen::People(kPeople, args.seed + 1);
      so.frames = 8192;
    } else {
      // A pool about a quarter of the store: reads mostly miss.
      inst->templates =
          data::gen::Orders(kTemplates, kPeople, kZipf, args.seed + 2);
      so.frames = 1024;
    }
    DBM_ASSIGN_OR_RETURN(inst->store, Store::Open(so));
    DBM_ASSIGN_OR_RETURN(storage::PagedRelation * orders,
                         inst->store->Load(inst->orders));
    inst->user_bytes = EncodedBytes(inst->orders);
    if (args.workload == "analytics") {
      DBM_ASSIGN_OR_RETURN(storage::PagedRelation * people,
                           inst->store->Load(inst->people));
      inst->user_bytes += EncodedBytes(inst->people);
      DBM_RETURN_NOT_OK(inst->store->FlushAndCheckpoint());
      inst->analytics = std::make_unique<AnalyticsBackend>(
          &inst->orders, &inst->people, orders, people, pool, spans);
      wo.backend = inst->analytics.get();
      wo.mix = {{kScanAgg, 4}, {kJoinAgg, 3}, {kLookup, 3}};
    } else {
      DBM_RETURN_NOT_OK(inst->store->FlushAndCheckpoint());
      inst->ingest = std::make_unique<IngestBackend>(
          inst->store.get(), orders, &inst->orders, &inst->templates, spans);
      DBM_RETURN_NOT_OK(inst->ingest->Init());
      wo.backend = inst->ingest.get();
      wo.mix = {{kWrite, 3}, {kRead, 1}};
    }
    wo.sessions = 4;
    wo.think_mean = kThink;
  }
  inst->world = std::make_unique<World>(std::move(wo), spans);
  DBM_RETURN_NOT_OK(inst->world->Build());
  return inst;
}

/// Brings a set-up to the state the measured phase starts from. Its time
/// depends on how fast the system serves, so it is not part of setup_s.
Status WarmUp(Instance* inst) {
  // Every query variant once: the analytics pool then hits on every get.
  if (inst->analytics != nullptr) return inst->analytics->Warm();
  // Let the crowd gather (the swarm's ramp) and the shed level settle.
  if (inst->world->telemetry() != nullptr) {
    return inst->world->WarmUp(Seconds(2));
  }
  return Status::OK();
}

/// Registry counters read before and after the measured phase.
const char* const kCounters[] = {
    "admission.invoke_cycles", "storage.buffer.gets",
    "storage.buffer.hits",     "storage.buffer.misses",
    "storage.buffer.evictions", "storage.buffer.dirty_writebacks",
    "store.disk.reads",        "store.disk.writes",
    "store.disk.crc_errors",   "wal.appends",
    "wal.bytes",               "wal.fsyncs",
    "wal.truncated_segments",
};

std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> out;
  obs::Registry& reg = obs::Registry::Default();
  for (const char* name : kCounters) {
    out[name] = static_cast<double>(reg.GetCounter(name).value());
  }
  return out;
}

struct PoolLedger {
  double running = 0, latch = 0, barrier = 0, starved = 0, idle = 0;
};

PoolLedger ReadPool(const query::WorkerPool& pool) {
  PoolLedger p;
  p.running = static_cast<double>(pool.TotalBusyNs());
  p.latch = static_cast<double>(pool.StateNs(obs::WaitState::kLatch));
  p.barrier = static_cast<double>(pool.StateNs(obs::WaitState::kBarrier));
  p.starved = static_cast<double>(pool.StateNs(obs::WaitState::kStarved));
  p.idle = static_cast<double>(pool.IdleNs());
  return p;
}

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// One metric as printed and as emitted in the JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome of one measured phase plus its checks.
struct Phase {
  PhaseResult r;
  std::map<std::string, double> delta;  // registry counter deltas
  PoolLedger pool;                      // pool ledger deltas
  double queue_wait_p99_us = 0;
  double peak_rss_mb = 0;  // through set-up and the measured phase
  obs::blackbox::TelemetryLogStats bb_before, bb_after;
  std::vector<std::string> failures;  // failed checks
  uint64_t checked = 0;
  uint64_t unchecked = 0;  // past a check log's capacity
  uint64_t op_errors = 0;
  uint64_t recovered_rows = 0;
  uint64_t bytes_on_disk = 0;
  uint64_t user_bytes = 0;
  // Backend figures, copied before the instance is torn down.
  std::array<QueryTotals, 3> query{};
  uint64_t writes = 0, rows_appended = 0, rows_read = 0, row_bytes = 0;
  uint64_t final_rows = 0, final_pages = 0;  // ingest's relation at the end
};

void Expect(Phase* p, bool ok, const std::string& what) {
  if (!ok) p->failures.push_back(what);
}

Result<Phase> Measure(Instance* inst, const query::WorkerPool& pool,
                      double seconds, SpanLog* spans, bool traced) {
  Phase p;
  obs::HistogramWindow queue_wait;
  obs::Histogram& qw = obs::Registry::Default().GetHistogram(
      "patia.queue_wait_us");
  queue_wait.Push(0, qw);
  const std::map<std::string, double> before = ReadCounters();
  const PoolLedger pool_before = ReadPool(pool);
  if (inst->world->telemetry() != nullptr) {
    p.bb_before = inst->world->telemetry()->stats();
  }

  spans->set_enabled(traced);
  Result<PhaseResult> run = inst->world->Run(seconds);
  spans->set_enabled(false);
  if (!run.ok()) return run.status();
  p.r = std::move(run).value();
  // Before the checks below, whose memory is not the system's.
  p.peak_rss_mb = PeakRssMb();

  const PoolLedger pool_after = ReadPool(pool);
  p.pool = {pool_after.running - pool_before.running,
            pool_after.latch - pool_before.latch,
            pool_after.barrier - pool_before.barrier,
            pool_after.starved - pool_before.starved,
            pool_after.idle - pool_before.idle};
  for (const auto& [name, value] : ReadCounters()) {
    p.delta[name] = value - before.at(name);
  }
  queue_wait.Push(1, qw);
  p.queue_wait_p99_us = queue_wait.WindowQuantile(1, 0.99);
  if (inst->world->telemetry() != nullptr) {
    p.bb_after = inst->world->telemetry()->stats();
  }

  // Checks, all outside the timed phase.
  const PhaseResult& r = p.r;
  Expect(&p, r.served > 0, "at least one request was served");
  Expect(&p, r.admitted == r.served + r.unserved,
         "every admitted request completed exactly once");
  Expect(&p,
         r.swarm_issued ==
             r.swarm_completed + r.swarm_shed + r.swarm_backpressured,
         "swarm identity issued == completed + shed + backpressured");
  Expect(&p, r.tick_errors == 0, "FrontDoor/PatiaServer ticks succeed");
  if (inst->analytics != nullptr) {
    p.op_errors = inst->analytics->op_errors();
    p.query = inst->analytics->totals();
    p.unchecked = inst->analytics->unchecked();
    Expect(&p, inst->analytics->Check(&p.checked) == 0,
           "query results match the serial executor over the mirror");
  }
  if (inst->ingest != nullptr) {
    IngestBackend& ing = *inst->ingest;
    p.op_errors = ing.op_errors();
    p.writes = ing.writes();
    p.rows_appended = ing.rows_appended();
    p.rows_read = ing.rows_read();
    p.row_bytes = ing.row_bytes();
    p.final_rows = ing.rows();
    p.final_pages = ing.pages();
    p.unchecked = ing.unchecked();
    Expect(&p, ing.CheckReads(&p.checked) == 0,
           "point reads match the mirror");
  }
  if (inst->store != nullptr) {
    p.bytes_on_disk = inst->store->BytesOnDisk();
    p.user_bytes =
        inst->user_bytes + p.rows_appended * static_cast<uint64_t>(p.row_bytes);
  }
  if (inst->ingest != nullptr) {
    Status drill = inst->ingest->CrashDrill(&p.recovered_rows);
    Expect(&p, drill.ok(), "crash drill: " + drill.ToString());
  }
  Expect(&p, p.op_errors == 0, "no op errors");
  Expect(&p,
         obs::Registry::Default().GetCounter("store.disk.crc_errors").value() ==
             0,
         "store.disk.crc_errors == 0");
  if (inst->world->telemetry() != nullptr) {
    Expect(&p, !p.bb_after.dead, "the black box stays alive");
  }
  return p;
}

/// Host latencies (ns) of the served requests whose op is in `ops`, or
/// of all served requests when `ops` is empty.
LatencyHistogram HostNs(const PhaseResult& r,
                        std::initializer_list<Op> ops = {}) {
  LatencyHistogram out;
  for (size_t op = 0; op < kOps; ++op) {
    if (ops.size() == 0 ||
        std::find(ops.begin(), ops.end(), static_cast<Op>(op)) != ops.end()) {
      out.Merge(r.host_ns[op]);
    }
  }
  return out;
}

double SimP99Ms(const PhaseResult& r) { return Quantile(r.sim_us, 0.99) / 1e3; }

uint64_t Refused(const PhaseResult& r) { return r.shed_rule + r.shed_overflow; }

uint64_t Failed(const Phase& p) {
  return p.r.unserved + p.op_errors + p.failures.size();
}

/// (refused + failed) / submitted. Backpressure is retried, not counted.
double FailedFrac(const Phase& p) {
  return Div(static_cast<double>(Refused(p.r) + Failed(p)),
             static_cast<double>(p.r.submitted));
}

void PrintTiming(const char* name, const LatencyHistogram& ns) {
  if (ns.count() == 0) return;
  const Timing t = Summarize(ns, 1e6);
  std::printf("  %-16s p50 %10.3f ms   p%.4g %10.3f ms   (n=%llu)\n", name,
              t.median, t.tail_pct, t.tail,
              static_cast<unsigned long long>(t.n));
}

/// The human-readable end-to-end report (every metric, with its parts).
void PrintEndToEnd(const Phase& p) {
  const PhaseResult& r = p.r;
  const double wall_s = static_cast<double>(r.wall_ns) / 1e9;
  std::printf("end-to-end (host time unless marked sim):\n");
  std::printf("  throughput_rps   %.3f 1/s   (%llu served in %.3f s)\n",
              Div(static_cast<double>(r.served), wall_s),
              static_cast<unsigned long long>(r.served), wall_s);
  PrintTiming("latency", HostNs(r));
  PrintTiming("query", HostNs(r, {kScanAgg, kJoinAgg, kLookup}));
  PrintTiming("write", HostNs(r, {kWrite}));
  PrintTiming("read", HostNs(r, {kRead}));
  for (Op op : {kScanAgg, kJoinAgg, kLookup, kPage}) {
    PrintTiming(OpName(op), r.host_ns[op]);
  }
  std::printf("  sim_p99_ms       %.3f sim ms\n", SimP99Ms(r));
  std::printf(
      "  failed_frac      %.6f   ((refused %llu = shed %llu + overflow %llu)"
      " + (failed %llu = served=false %llu + op errors %llu + check errors "
      "%zu)) / submitted %llu; backpressured %llu (retried), closed %llu\n",
      FailedFrac(p), static_cast<unsigned long long>(Refused(r)),
      static_cast<unsigned long long>(r.shed_rule),
      static_cast<unsigned long long>(r.shed_overflow),
      static_cast<unsigned long long>(Failed(p)),
      static_cast<unsigned long long>(r.unserved),
      static_cast<unsigned long long>(p.op_errors), p.failures.size(),
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.backpressured),
      static_cast<unsigned long long>(r.closed));
  if (p.user_bytes > 0) {
    std::printf("  space_amp        %.4f   (%llu bytes on disk / %llu user)\n",
                Div(static_cast<double>(p.bytes_on_disk),
                    static_cast<double>(p.user_bytes)),
                static_cast<unsigned long long>(p.bytes_on_disk),
                static_cast<unsigned long long>(p.user_bytes));
  }
  if (p.writes > 0) {
    std::printf("  ingest           %llu rows appended in %llu writes; the "
                "relation ends at %llu rows on %llu pages\n",
                static_cast<unsigned long long>(p.rows_appended),
                static_cast<unsigned long long>(p.writes),
                static_cast<unsigned long long>(p.final_rows),
                static_cast<unsigned long long>(p.final_pages));
  }
  std::printf("  peak_rss_mb      %.1f MiB\n", p.peak_rss_mb);
}

std::vector<Metric> EndToEndMetrics(const Phase& p, double setup_s) {
  const PhaseResult& r = p.r;
  const double wall_s = static_cast<double>(r.wall_ns) / 1e9;
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_rps", Div(static_cast<double>(r.served), wall_s), "1/s"},
      {"p50_ms", Summarize(HostNs(r), 1e6).median, "ms"},
      {"served_frac", 1.0 - FailedFrac(p), "ratio"},
      {"peak_rss_mb", p.peak_rss_mb, "MiB"},
  };
}

/// Per-layer metrics of a traced phase; every value is a measured-phase
/// delta, normalised per call, row or served request as the unit says.
std::vector<Metric> LayerMetrics(const Phase& p, const SpanLog& spans,
                                 const SpanLog::Breakdown& b) {
  const PhaseResult& r = p.r;
  const double served = static_cast<double>(r.served);
  auto self = [&](Layer l) {
    return static_cast<double>(b.self_ns[static_cast<size_t>(l)]);
  };
  auto count = [&](Layer l) {
    return static_cast<double>(b.count[static_cast<size_t>(l)]);
  };
  // Total (not self) span time per layer and, for queries, per op.
  std::array<double, kLayers> dur{};
  std::array<double, 3> query_ns{};
  for (const SpanLog::Span& s : spans.spans()) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    dur[static_cast<size_t>(s.layer)] += d;
    if (s.layer == Layer::kQuery && s.tag < 3) query_ns[s.tag] += d;
  }
  auto total = [&](Layer l) { return dur[static_cast<size_t>(l)]; };
  auto d = [&](const char* name) { return p.delta.at(name); };

  double calls = 0, result_rows = 0, scanned = 0, batches = 0, morsels = 0,
         allocs = 0, util = 0, par_calls = 0;
  for (const QueryTotals& q : p.query) {
    calls += static_cast<double>(q.calls);
    result_rows += static_cast<double>(q.result_rows);
    scanned += static_cast<double>(q.scanned_rows);
    batches += static_cast<double>(q.batches);
    morsels += static_cast<double>(q.morsels);
    allocs += static_cast<double>(q.steady_allocs);
    util += q.worker_util_sum;
    par_calls += static_cast<double>(q.parallel_calls);
  }
  const double rows_touched = scanned + static_cast<double>(p.rows_read) +
                              static_cast<double>(p.rows_appended);
  const double user_appended =
      static_cast<double>(p.rows_appended) * static_cast<double>(p.row_bytes);
  const double bb_appended =
      static_cast<double>(p.bb_after.appended - p.bb_before.appended);
  const double bb_dropped =
      static_cast<double>(p.bb_after.dropped - p.bb_before.dropped);

  return {
      {"patia.submit_ns", Div(total(Layer::kSubmit), count(Layer::kSubmit)),
       "ns/call"},
      {"patia.tick_self_ns",
       Div(self(Layer::kDoorTick) + self(Layer::kServerTick), served),
       "ns/req"},
      {"patia.batch_mean",
       Div(static_cast<double>(r.admitted), static_cast<double>(r.batches)),
       "req/batch"},
      {"patia.queue_wait_p99_us", p.queue_wait_p99_us, "sim_us"},
      {"patia.refused", static_cast<double>(Refused(r)), "count"},
      {"patia.backpressured", static_cast<double>(r.backpressured), "count"},
      {"os.invoke_cycles_per_req",
       Div(d("admission.invoke_cycles"), static_cast<double>(r.admitted)),
       "cycles/req"},
      {"query.exec_ns.scan_agg",
       Div(query_ns[kScanAgg], static_cast<double>(p.query[kScanAgg].calls)),
       "ns/call"},
      {"query.exec_ns.join_agg",
       Div(query_ns[kJoinAgg], static_cast<double>(p.query[kJoinAgg].calls)),
       "ns/call"},
      {"query.exec_ns.lookup",
       Div(query_ns[kLookup], static_cast<double>(p.query[kLookup].calls)),
       "ns/call"},
      {"query.rows_per_result", Div(scanned, result_rows), "rows/row"},
      {"query.batches", Div(batches, calls), "count/query"},
      {"query.morsels", Div(morsels, calls), "count/query"},
      {"query.worker_util", Div(util, par_calls), "%"},
      {"query.steady_allocs", Div(allocs, calls), "count/query"},
      {"query.worker.running_ns", Div(p.pool.running, served), "ns/req"},
      {"query.worker.latch_ns", Div(p.pool.latch, served), "ns/req"},
      {"query.worker.barrier_ns", Div(p.pool.barrier, served), "ns/req"},
      {"query.worker.starved_ns", Div(p.pool.starved, served), "ns/req"},
      {"query.worker.idle_ns", Div(p.pool.idle, served), "ns/req"},
      {"storage.buffer.gets_per_row",
       Div(d("storage.buffer.gets"), rows_touched), "gets/row"},
      {"storage.buffer.hit_rate",
       Div(d("storage.buffer.hits"), d("storage.buffer.gets")), "ratio"},
      {"storage.buffer.misses", Div(d("storage.buffer.misses"), served),
       "count/req"},
      {"storage.buffer.evictions", Div(d("storage.buffer.evictions"), served),
       "count/req"},
      {"storage.buffer.dirty_writebacks",
       Div(d("storage.buffer.dirty_writebacks"), served), "count/req"},
      {"storage.read_ns",
       Div(total(Layer::kRead), static_cast<double>(p.rows_read)), "ns/row"},
      {"storage.disk.reads", Div(d("store.disk.reads"), served), "count/req"},
      {"storage.disk.writes", Div(d("store.disk.writes"), served),
       "count/req"},
      {"storage.append_ns",
       Div(total(Layer::kAppend), static_cast<double>(p.rows_appended)),
       "ns/row"},
      {"storage.flush_ns", Div(total(Layer::kFlush), count(Layer::kFlush)),
       "ns/call"},
      {"storage.wal.appends", Div(d("wal.appends"), served), "count/req"},
      {"storage.wal.fsyncs_per_write",
       Div(d("wal.fsyncs"), static_cast<double>(p.writes)), "fsyncs/write"},
      {"storage.wal.bytes_per_user_byte", Div(d("wal.bytes"), user_appended),
       "ratio"},
      {"storage.checkpoint_ns",
       Div(total(Layer::kCheckpoint), count(Layer::kCheckpoint)), "ns/call"},
      {"storage.wal.truncated_segments", d("wal.truncated_segments"),
       "count"},
      {"storage.disk.crc_errors", d("store.disk.crc_errors"), "count"},
      {"storage.space_amp",
       Div(static_cast<double>(p.bytes_on_disk),
           static_cast<double>(p.user_bytes)),
       "ratio"},
      {"obs.blackbox.appended", Div(bb_appended, served), "count/req"},
      {"obs.blackbox.dropped_frac", Div(bb_dropped, bb_appended + bb_dropped),
       "ratio"},
      {"obs.blackbox.flush_lag_us",
       static_cast<double>(p.bb_after.flush_lag_us), "us"},
      {"obs.blackbox.fsyncs",
       static_cast<double>(p.bb_after.fsyncs - p.bb_before.fsyncs), "count"},
      {"bench.atom_self_ns", Div(self(Layer::kAtom), served), "ns/req"},
      {"loop.self_ns", Div(self(Layer::kLoop), served), "ns/req"},
      {"sim_p99_ms", SimP99Ms(r), "sim_ms"},
      {"failed_frac", FailedFrac(p), "ratio"},
  };
}

/// Each layer's self time against the measured wall time, and the part
/// of the wall time no span covers: the driver's own work between slices.
void PrintBreakdown(const Phase& p, const SpanLog::Breakdown& b) {
  const double wall = static_cast<double>(p.r.wall_ns);
  const double outside = wall - static_cast<double>(b.top_level_ns);
  std::printf("layer self time over the traced phase (wall %.3f ms):\n",
              wall / 1e6);
  for (size_t l = 0; l < kLayers; ++l) {
    const double ns = static_cast<double>(b.self_ns[l]);
    std::printf("  %-20s %12.3f ms  %6.2f%%  (%llu spans)\n",
                LayerName(static_cast<Layer>(l)), ns / 1e6,
                100.0 * Div(ns, wall),
                static_cast<unsigned long long>(b.count[l]));
  }
  std::printf("  %-20s %12.3f ms  %6.2f%%  (must stay under %.0f%%)\n",
              "outside every span", outside / 1e6, 100.0 * Div(outside, wall),
              100.0 * kMaxUncoveredShare);
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload analytics|ingest|flashcrowd "
                 "--seed N --seconds S --trace 0|1 [--data-dir DIR]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.data_dir.c_str());
    return 2;
  }
  // Timings must not absorb injected faults (DBM_FAULT_SPEC).
  (void)fault::Injector::Default().Configure("", 0);

  // One pool, no wider than the host, shared by the front door's
  // admission stage and every query.
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  query::WorkerPool pool(std::min<size_t>(nproc, 8));
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"pool_width\": %zu, \"build_type\": "
      "\"%s\", \"wal_fsync\": \"%s\", \"data_fs\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, nproc, pool.size(),
      PERFBENCH_BUILD_TYPE, storage::WalFsyncPolicyName(kFsyncPolicy),
      FsType(args.data_dir).c_str());

  SpanLog spans;
  Phase phase;
  std::vector<Metric> metrics;
  if (!args.trace) {
    // Several full set-ups; the last one is warmed and measured. A
    // flash-crowd set-up builds no data, so it takes milliseconds and is
    // repeated more to steady its median.
    const int setups = args.workload == "flashcrowd" ? 31 : 5;
    std::vector<double> setup_s;
    std::unique_ptr<Instance> inst;
    for (int i = 0; i < setups; ++i) {
      inst.reset();
      ClearDataDir(args);
      const int64_t t0 = NowNs();
      Result<std::unique_ptr<Instance>> made = SetUp(args, &pool, &spans);
      if (!made.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      inst = std::move(made).value();
    }
    std::printf("setup_s          %.4f s   (median of %d:", Median(setup_s),
                setups);
    for (double s : setup_s) std::printf(" %.4f", s);
    std::printf(")\n");
    const int64_t warm0 = NowNs();
    if (Status s = WarmUp(inst.get()); !s.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("warmup_s         %.4f s   (not part of setup_s)\n",
                static_cast<double>(NowNs() - warm0) / 1e9);
    Result<Phase> measured =
        Measure(inst.get(), pool, args.seconds, &spans, /*traced=*/false);
    if (!measured.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   measured.status().ToString().c_str());
      return 1;
    }
    phase = std::move(measured).value();
    PrintEndToEnd(phase);
    metrics = EndToEndMetrics(phase, Median(setup_s));
  } else {
    // Untraced then traced, each on a fresh set-up; the difference in
    // wall time per served request is the tracing overhead.
    double per_req_ns[2] = {0, 0};
    SpanLog::Breakdown breakdown;
    for (int pass = 0; pass < 2; ++pass) {
      ClearDataDir(args);
      Result<std::unique_ptr<Instance>> inst = SetUp(args, &pool, &spans);
      Status ready = inst.ok() ? WarmUp(inst->get()) : inst.status();
      if (!ready.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", ready.ToString().c_str());
        return 1;
      }
      Result<Phase> measured = Measure(inst->get(), pool, args.seconds / 2,
                                       &spans, /*traced=*/pass == 1);
      if (!measured.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     measured.status().ToString().c_str());
        return 1;
      }
      phase = std::move(measured).value();
      per_req_ns[pass] = Div(static_cast<double>(phase.r.wall_ns),
                             static_cast<double>(phase.r.served));
      if (!phase.failures.empty()) break;
    }
    PrintEndToEnd(phase);
    Result<SpanLog::Breakdown> b = spans.SelfTimes();
    if (!b.ok()) {
      phase.failures.push_back("span nesting: " + b.status().ToString());
    } else {
      breakdown = *b;
      PrintBreakdown(phase, breakdown);
      const double wall = static_cast<double>(phase.r.wall_ns);
      const double outside = wall - static_cast<double>(breakdown.top_level_ns);
      if (outside < 0 || outside > kMaxUncoveredShare * wall) {
        phase.failures.push_back(
            "layer self times do not account for the measured wall time");
      }
    }
    std::printf(
        "tracing overhead: %.1f ns/req (traced %.1f - untraced %.1f, "
        "%.2f%%)\n",
        per_req_ns[1] - per_req_ns[0], per_req_ns[1], per_req_ns[0],
        100.0 * Div(per_req_ns[1] - per_req_ns[0], per_req_ns[0]));
    const std::string span_path =
        args.data_dir + "/spans-" + args.workload + ".tsv";
    Status w = spans.WriteTsv(span_path, kMaxSpansWritten);
    std::printf("spans: %zu recorded, first %zu written to %s (%s)\n",
                spans.spans().size(),
                std::min(spans.spans().size(), kMaxSpansWritten),
                span_path.c_str(), w.ok() ? "ok" : w.ToString().c_str());
    metrics = LayerMetrics(phase, spans, breakdown);
    std::printf("per-layer:\n");
    for (const Metric& m : metrics) {
      std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  for (const std::string& f : phase.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %zu failed, %llu results verified, %llu past the "
              "check log unchecked, %llu rows recovered\n",
              phase.failures.size(),
              static_cast<unsigned long long>(phase.checked),
              static_cast<unsigned long long>(phase.unchecked),
              static_cast<unsigned long long>(phase.recovered_rows));
  const bool correct = phase.failures.empty();
  std::printf("%s\n", Json(correct, std::max<uint64_t>(1, phase.r.submitted),
                          Failed(phase), metrics)
                         .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
