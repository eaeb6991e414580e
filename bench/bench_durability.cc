// Durability overhead + crash drill — what the WAL costs when it's on,
// and proof the recovery path earns its keep.
//
// Arm 1 loads the A9 tables (orders: 400k rows, people: 2k rows) into a
// paged store over the volatile in-memory disk. Arm 2 loads the same
// tables over FileDiskComponent with a write-ahead log attached at the
// kNever fsync policy — every writeback pays the WAL append and the
// durable-LSN barrier, but no fsync rides the hot path. The acceptance
// bar prices the WAL's own work, not the load's: the walled arm's extra
// host time per WAL append, (walled − bare) / appends, in units of one
// plain 4 KiB write appended to a fresh file, timed in the same rep. A
// ratio of the two arms would divide the WAL's fixed cost by the load's
// per-row CPU, so a faster load alone would fail it; the per-append
// difference does not move with the load's speed, and pricing it in
// file writes keeps a host or a phase with slower file writes from
// moving it either. Each of 20 interleaved reps runs both arms back to
// back, in alternating order, and contributes one paired figure; the
// bar is their lower quartile, which a quarter of the reps drawing a
// slow phase in the walled arm cannot move. A writeback costs about two
// file writes (the log frame and the page slot), so the budget,
// kWalWritesPerAppendBudget, catches one more write per append. The
// closing checkpoint's two fsyncs belong to the host filesystem, so
// they are timed apart and only reported.
//
// store.wal.append_cycles is a cycles-named gauge holding the
// deterministic count of WAL appends during the walled load (shards=1 +
// LRU makes eviction — and therefore writeback — a pure function of the
// workload), so bench_diff gates it against the committed baseline: a
// buffer-manager change that silently doubles WAL traffic fails CI
// visibly. The host-time figures are honest but noisy, so they ride in
// the baseline's "nogate" list.
//
// The bench then runs the crash drill under each chaos seed (17/23/42):
// arm storage.wal.append:crash, load until the injector kills the log
// mid-flight, restart, replay the WAL, and verify the recovered
// relation is an exact prefix of the original — no duplicates, no
// holes, no reordering. The seed-42 wreckage (torn WAL + page file) is
// left next to the binary for tools/wal_dump and the CI artifact
// collector.
//
// A final fsync-policy sweep (kNever / kInterval / kCommit over a 40k
// row load) prices the durability dial; those numbers are informational
// (nogate) — fsync latency belongs to the host filesystem, not to us.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/relation.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "storage/buffer.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace {

using namespace dbm;
using namespace dbm::storage;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_durability FAIL: %s\n", what);
    std::exit(1);
  }
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void ResetPaths(const std::string& page_path, const std::string& wal_dir) {
  std::error_code ec;
  std::filesystem::remove(page_path, ec);
  std::filesystem::remove_all(wal_dir, ec);
}

constexpr size_t kFrames = 64;

/// Paired reps behind the per-append bar; an even count, so each arm runs
/// first equally often.
constexpr int kReps = 20;

/// Budget for the walled arm's extra host time per WAL append, in 4 KiB
/// file writes (the lower quartile of the paired figures): the page
/// image's log append and CRC, the barrier and the page-file pwrite,
/// against the bare arm's in-memory write. Fixed from 20 runs of the
/// row-at-a-time append path on a shared 4-vCPU VM (ext4, Release): the
/// largest reading, 2.55, rounded up to the next tenth.
constexpr double kWalWritesPerAppendBudget = 2.6;

/// Loads both A9 tables over the volatile in-memory disk. Returns host
/// milliseconds for the load + flush.
double LoadBare(const data::Relation& orders, const data::Relation& people) {
  auto disk = std::make_shared<DiskComponent>();
  auto buffer = std::make_shared<BufferManager>("buf", kFrames);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  const auto start = std::chrono::steady_clock::now();
  Check(PagedRelation::Load(orders, buffer.get(), disk.get()).ok(),
        "bare orders load");
  Check(PagedRelation::Load(people, buffer.get(), disk.get()).ok(),
        "bare people load");
  Check(buffer->FlushAll().ok(), "bare flush");
  return MsSince(start);
}

/// Host microseconds per 4 KiB write appended to a fresh file at `path`
/// (`n` writes, then the file is unlinked): the unit the WAL's per-append
/// cost is priced in, measured beside it so a host or a phase with slower
/// file writes moves both.
double UsPerFileWrite(const std::string& path, uint64_t n) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  Check(fd >= 0, "calibration file opens");
  const std::vector<char> block(kPageSize, 0x5a);
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    Check(::write(fd, block.data(), block.size()) ==
              static_cast<ssize_t>(block.size()),
          "calibration write");
  }
  const double us = MsSince(start) * 1000.0 / static_cast<double>(n);
  ::close(fd);
  std::filesystem::remove(path);
  return us;
}

/// Host milliseconds of one walled load: the load itself, and the closing
/// checkpoint (its fsyncs), timed apart.
struct WalledMs {
  double load = 0;
  double checkpoint = 0;
};

/// Loads both A9 tables over FileDiskComponent + WAL, then checkpoints.
/// The WAL stats after the checkpoint land in *stats.
WalledMs LoadWalled(const data::Relation& orders, const data::Relation& people,
                    const std::string& page_path, const std::string& wal_dir,
                    WalFsyncPolicy policy, WalStats* stats) {
  ResetPaths(page_path, wal_dir);
  auto disk = FileDiskComponent::Open(page_path);
  Check(disk.ok(), "page file opens");
  std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
  WalOptions wopt;
  wopt.dir = wal_dir;
  wopt.fsync = policy;
  auto wal = Wal::Open(wopt);
  Check(wal.ok(), "wal opens");
  auto buffer = std::make_shared<BufferManager>("buf", kFrames);
  buffer->FindPort("disk")->SetTarget(fdisk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  buffer->SetWal(wal->get());
  WalledMs ms;
  const auto start = std::chrono::steady_clock::now();
  Check(PagedRelation::Load(orders, buffer.get(), fdisk.get()).ok(),
        "walled orders load");
  Check(PagedRelation::Load(people, buffer.get(), fdisk.get()).ok(),
        "walled people load");
  ms.load = MsSince(start);
  const auto checkpoint_start = std::chrono::steady_clock::now();
  Check(buffer->CheckpointWal().ok(), "checkpoint");
  ms.checkpoint = MsSince(checkpoint_start);
  if (stats != nullptr) *stats = (*wal)->stats();
  buffer->SetWal(nullptr);
  return ms;
}

/// The q-quantile of `v` (0 ≤ q ≤ 1), interpolating between neighbours.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

/// The crash drill: arm the injector, load until the WAL dies
/// mid-flight, restart, replay, and verify the recovered relation is an
/// exact prefix of the original. Returns the recovered row count.
size_t CrashAndRecover(const data::Relation& orders,
                       const std::string& page_path,
                       const std::string& wal_dir, uint64_t seed) {
  ResetPaths(page_path, wal_dir);
  Check(fault::Injector::Default()
            .Configure("storage.wal.append:crash@0.02", seed)
            .ok(),
        "crash spec parses");
  {
    auto disk = FileDiskComponent::Open(page_path);
    Check(disk.ok(), "crash-arm page file opens");
    std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
    auto wal = Wal::Open({.dir = wal_dir});
    Check(wal.ok(), "crash-arm wal opens");
    auto buffer = std::make_shared<BufferManager>("buf", kFrames);
    buffer->FindPort("disk")->SetTarget(fdisk);
    buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
    buffer->SetWal(wal->get());
    auto paged = PagedRelation::Load(orders, buffer.get(), fdisk.get());
    Check(!paged.ok(), "injected crash fired mid-load");
    buffer->SetWal(nullptr);
  }

  // Restart: quiet injector, fresh handles onto the wreckage.
  Check(fault::Injector::Default().Configure("", 0).ok(), "injector quiet");
  auto disk = FileDiskComponent::Open(page_path);
  Check(disk.ok(), "restart page file opens");
  std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
  fault::StateManager state;
  auto report = Recover(fdisk.get(), wal_dir, &state);
  Check(report.ok(), "recovery succeeds");

  auto buffer = std::make_shared<BufferManager>("buf", kFrames);
  buffer->FindPort("disk")->SetTarget(fdisk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  auto recovered =
      PagedRelation::Recover("orders", orders.schema(), buffer.get(),
                             fdisk.get());
  Check(recovered.ok(), "recovered relation attaches");

  size_t i = 0;
  bool prefix_ok = true;
  Status scan = (*recovered)->Scan([&](const data::Tuple& t) {
    if (i >= orders.size() || !(t == orders.rows()[i])) {
      prefix_ok = false;
      return false;
    }
    ++i;
    return true;
  });
  Check(scan.ok(), "recovered scan is clean (zero torn pages)");
  Check(prefix_ok, "recovered rows are an exact prefix of the original");
  Check(i == (*recovered)->rows(), "row count matches the scan");
  return i;
}

}  // namespace

int main(int argc, char** argv) {
  dbm::bench::Init(&argc, argv);
  bench::Header("DUR", "durable paged storage: WAL cost, crash, recovery");
  // The overhead comparison needs a quiet injector; the chaos job arms
  // the storage points through wal_test instead.
  Check(fault::Injector::Default().Configure("", 0).ok(), "injector quiet");
  obs::Registry& reg = obs::Registry::Default();
  const std::string out = bench::Context().out_dir;
  const std::string page_path = out + "bench_durability.dbm";
  const std::string wal_dir = out + "bench_durability.wal";
  const std::string calib_path = out + "bench_durability.calib";

  const data::Relation orders = data::gen::Orders(400000, 2000, 0.5, 42);
  const data::Relation people = data::gen::People(2000, 43);
  const double rows = static_cast<double>(orders.size() + people.size());

  // Paired estimator over kReps interleaved reps. Per-rep times on a
  // shared host wobble (frequency scaling, steal time), so each rep runs
  // both arms back to back — bare first on even reps, walled first on
  // odd ones, so drift within a rep favours neither — and contributes
  // one paired difference per WAL append, priced in the file writes
  // timed right after the arms. Their lower quartile is the bar's
  // estimator; the raw microseconds and the best walled/bare ratio are
  // still reported (overhead_pct), and each arm's min time feeds the
  // table.
  double bare_ms = 1e300, walled_ms = 1e300, best_ratio = 1e300;
  std::vector<double> extra_us_per_append, extra_writes_per_append,
      checkpoint_ms;
  WalStats wstats;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool bare_first = rep % 2 == 0;
    double b = bare_first ? LoadBare(orders, people) : 0;
    const WalledMs w = LoadWalled(orders, people, page_path, wal_dir,
                                  WalFsyncPolicy::kNever, &wstats);
    if (!bare_first) b = LoadBare(orders, people);
    bare_ms = std::min(bare_ms, b);
    walled_ms = std::min(walled_ms, w.load);
    best_ratio = std::min(best_ratio, w.load / b);
    const double extra_us =
        (w.load - b) * 1000.0 / static_cast<double>(wstats.appends);
    const double write_us = UsPerFileWrite(calib_path, wstats.appends);
    extra_us_per_append.push_back(extra_us);
    extra_writes_per_append.push_back(extra_us / write_us);
    checkpoint_ms.push_back(w.checkpoint);
    // Unlink the rep's files right away (outside the timed window):
    // dirty page-cache data of an unlinked file is dropped, so the
    // kernel flusher never stalls a later rep writing back ~15 MB this
    // rep no longer needs.
    ResetPaths(page_path, wal_dir);
  }
  const double bare_us_row = bare_ms * 1000.0 / rows;
  const double walled_us_row = walled_ms * 1000.0 / rows;
  const double overhead_pct = (best_ratio - 1.0) * 100.0;
  const double wal_us_per_append = Quantile(extra_us_per_append, 0.25);
  const double wal_writes_per_append =
      Quantile(extra_writes_per_append, 0.25);
  const double checkpoint_median_ms = Quantile(checkpoint_ms, 0.5);

  bench::Table table({10, 10, 12, 12, 12});
  table.Row({"arm", "rows", "host_ms", "us/row", "wal_appends"});
  table.Rule();
  table.Row({"bare", bench::FmtU(orders.size() + people.size()),
             bench::Fmt("%.1f", bare_ms), bench::Fmt("%.3f", bare_us_row),
             "0"});
  table.Row({"walled", bench::FmtU(orders.size() + people.size()),
             bench::Fmt("%.1f", walled_ms),
             bench::Fmt("%.3f", walled_us_row), bench::FmtU(wstats.appends)});
  table.Rule();
  bench::Note(bench::Fmt("%.2f", wal_writes_per_append) +
              " file writes of extra host time per WAL append with "
              "fsync=never (lower quartile of " + bench::FmtU(kReps) +
              " paired reps; budget " +
              bench::Fmt("%.2f", kWalWritesPerAppendBudget) + "); " +
              bench::Fmt("%.2f", wal_us_per_append) + " us, best ratio " +
              bench::Fmt("%+.1f", overhead_pct) + "%, checkpoint " +
              bench::Fmt("%.1f", checkpoint_median_ms) + " ms (" +
              bench::FmtU(wstats.appends) + " appends, " +
              bench::FmtU(wstats.bytes) + " WAL bytes, " +
              bench::FmtU(wstats.checkpoints) + " checkpoint, " +
              bench::FmtU(wstats.truncated_segments) +
              " segments truncated)");

  // The deterministic cost pin: WAL appends are a pure function of the
  // workload (shards=1 + LRU eviction), so bench_diff gates this
  // cycles-named gauge at 10% against the committed baseline.
  reg.GetGauge("store.wal.append_cycles")
      .Set(static_cast<double>(wstats.appends));
  // Honest-but-noisy host figures: nogated in the baseline.
  reg.GetGauge("bench.durability.us_per_row_bare").Set(bare_us_row);
  reg.GetGauge("bench.durability.us_per_row_walled").Set(walled_us_row);
  reg.GetGauge("bench.durability.overhead_pct").Set(overhead_pct);
  reg.GetGauge("bench.durability.wal_us_per_append").Set(wal_us_per_append);
  reg.GetGauge("bench.durability.wal_writes_per_append")
      .Set(wal_writes_per_append);
  reg.GetGauge("bench.durability.checkpoint_ms").Set(checkpoint_median_ms);

  Check(wstats.appends > 1000, "the load actually exercised the WAL");
  Check(wal_writes_per_append <= kWalWritesPerAppendBudget,
        "walled arm's extra host time per WAL append stays within budget "
        "(fsync=never)");

  // Crash drill under the chaos seeds. Seed 42's wreckage stays on disk
  // for tools/wal_dump and the CI artifact collector; recovery reads
  // the torn tail without repairing it (only Wal::Open truncates).
  uint64_t recovered_total = 0;
  for (uint64_t seed : {17u, 23u, 42u}) {
    const std::string crash_page =
        out + "bench_durability_crash.dbm";
    const std::string crash_wal = out + "bench_durability_crash.wal";
    size_t n = CrashAndRecover(orders, crash_page, crash_wal, seed);
    recovered_total += n;
    bench::Note("seed " + bench::FmtU(seed) + ": crash mid-load, " +
                bench::FmtU(n) + " rows recovered as an exact prefix");
    if (seed != 42u) ResetPaths(crash_page, crash_wal);
  }
  // Deterministic (injector + eviction are seeded), informational.
  reg.GetGauge("bench.durability.recovered_rows")
      .Set(static_cast<double>(recovered_total));

  // Fsync-policy sweep over a smaller load: the price of the dial.
  const data::Relation small = data::gen::Orders(40000, 2000, 0.5, 42);
  struct Sweep {
    WalFsyncPolicy policy;
    const char* gauge;
  };
  const Sweep sweeps[] = {
      {WalFsyncPolicy::kNever, "bench.durability.fsync_never_ms"},
      {WalFsyncPolicy::kInterval, "bench.durability.fsync_interval_ms"},
      {WalFsyncPolicy::kCommit, "bench.durability.fsync_commit_ms"},
  };
  bench::Table sweep_table({12, 12, 12});
  sweep_table.Row({"fsync", "host_ms", "fsyncs"});
  sweep_table.Rule();
  for (const Sweep& s : sweeps) {
    WalStats st;
    const WalledMs walled =
        LoadWalled(small, people, page_path, wal_dir, s.policy, &st);
    const double ms = walled.load + walled.checkpoint;
    reg.GetGauge(s.gauge).Set(ms);
    sweep_table.Row({WalFsyncPolicyName(s.policy), bench::Fmt("%.1f", ms),
                     bench::FmtU(st.fsyncs)});
  }
  sweep_table.Rule();

  // Leave a clean walled artifact behind for wal_dump smoke tests: the
  // final sweep's WAL directory and page file sit next to the binary.
  bench::Note("artifacts: " + wal_dir + " (clean), " + out +
              "bench_durability_crash.wal (torn, seed 42)");

  bench::MetricsSidecar("bench_durability");
  std::printf("\nbench_durability OK\n");
  return 0;
}
