#include "query/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "fault/injector.h"
#include "fault/log.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/tracectx.h"
#include "obs/waitstate.h"
#include "query/batch.h"
#include "query/join.h"
#include "query/paged_source.h"

namespace dbm::query {

namespace {

struct ParObs {
  obs::Gauge& dop;
  obs::Gauge& morsels;
  obs::Gauge& util;
  obs::Counter& queries;
  obs::Counter& morsels_total;
  obs::Counter& work_cycles;
  obs::Counter& batch_batches;
  obs::Counter& batch_rows;
  obs::Gauge& batch_selectivity;

  static ParObs& Get() {
    static ParObs* m = [] {
      obs::Registry& reg = obs::Registry::Default();
      return new ParObs{reg.GetGauge("exec.dop"),
                        reg.GetGauge("exec.morsels"),
                        reg.GetGauge("exec.worker-util"),
                        reg.GetCounter("query.pexec.queries"),
                        reg.GetCounter("query.pexec.morsels"),
                        reg.GetCounter("query.pexec.work_cycles"),
                        reg.GetCounter("query.batch.batches"),
                        reg.GetCounter("query.batch.rows"),
                        reg.GetGauge("query.batch.selectivity")};
    }();
    return *m;
  }
};

/// The per-morsel fault gate. Point::Decide advances the point's Rng and
/// is not thread-safe, so armed draws serialize on a mutex — the unarmed
/// fast path stays a single relaxed load.
struct MorselFaultGate {
  fault::Point* point;
  std::mutex mu;

  MorselFaultGate()
      : point(fault::Injector::Default().GetPoint("query.morsel")) {}

  Status Check() {
    if (!point->armed()) return Status::OK();
    fault::Decision d;
    {
      std::lock_guard<std::mutex> lock(mu);
      d = point->Decide();
    }
    if (d.error || d.crash || d.hang) {
      const char* what = d.crash ? "crash" : (d.hang ? "hang" : "error");
      fault::Record(fault::FaultEventKind::kInjected, "query.morsel", what,
                    0);
      return Status::Unavailable(
          std::string("injected ") + what +
          " at query.morsel: worker abandons the query");
    }
    return Status::OK();
  }
};

size_t ScanUnits(const ParallelScan& scan, const ParallelOptions& options,
                 size_t* units_per_morsel) {
  if (scan.paged != nullptr) {
    *units_per_morsel = options.morsel_pages;
    return scan.paged->pages();
  }
  *units_per_morsel = options.morsel_rows;
  return scan.mem->rows().size();
}

/// Runs `body(worker, morsel)` over the cursor on workers [0, width),
/// honoring the park/resume target. A failing worker poisons the cursor
/// so the others drain, and the first error becomes the job's status.
Status RunMorselLoop(WorkerPool& pool, size_t width,
                     const std::atomic<size_t>* target, MorselCursor* cursor,
                     const std::function<Status(size_t, const Morsel&)>& body,
                     const std::function<void(WorkerPool::Job*)>& coordinate) {
  auto worker = [&, target, cursor](size_t wid) -> Status {
    Morsel morsel;
    while (true) {
      if (wid > 0 && target != nullptr &&
          wid >= target->load(std::memory_order_relaxed)) {
        // Parked: this vCPU is above the governor's current dop. Check
        // back shortly — the governor may scale up, or the scan may end.
        // Parked time is morsel-starvation, not work: without the scope
        // it would count as busy and inflate exec.worker-util.
        if (cursor->Exhausted()) return Status::OK();
        obs::WaitStateScope wait(obs::WaitState::kStarved);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      if (!cursor->Next(&morsel)) return Status::OK();
      Status status = body(wid, morsel);
      if (!status.ok()) {
        cursor->Poison();
        return status;
      }
    }
  };
  std::shared_ptr<WorkerPool::Job> job = pool.Launch(width, worker);
  if (coordinate) coordinate(job.get());
  return job->Wait();
}

}  // namespace

data::Schema ParallelPlan::OutputSchema() const {
  data::Schema schema = probe.schema();
  for (const ParallelJoinStage& stage : joins) {
    schema = data::Schema::Join(stage.build.schema(), schema);
  }
  if (!project.empty()) schema = project_schema;
  if (!aggs.empty()) {
    schema = GroupAccumulator::OutputSchema(schema, group_by, aggs);
  }
  return schema;
}

Result<OperatorPtr> BuildSerial(const ParallelPlan& plan) {
  auto make_source = [](const ParallelScan& scan) -> Result<OperatorPtr> {
    OperatorPtr src;
    if (scan.paged != nullptr) {
      src = std::make_unique<PagedSource>(scan.paged);
    } else if (scan.mem != nullptr) {
      src = std::make_unique<MemSource>(scan.mem);
    } else {
      return Status::InvalidArgument("scan has neither paged nor mem input");
    }
    if (scan.filter != nullptr) {
      src = std::make_unique<FilterOp>(std::move(src), scan.filter);
    }
    return src;
  };

  DBM_ASSIGN_OR_RETURN(OperatorPtr root, make_source(plan.probe));
  for (const ParallelJoinStage& stage : plan.joins) {
    DBM_ASSIGN_OR_RETURN(OperatorPtr build, make_source(stage.build));
    root = std::make_unique<HashJoin>(std::move(build), std::move(root),
                                      stage.spec);
  }
  if (plan.post_filter != nullptr) {
    root = std::make_unique<FilterOp>(std::move(root), plan.post_filter);
  }
  if (!plan.project.empty()) {
    root = std::make_unique<ProjectOp>(std::move(root), plan.project,
                                       plan.project_schema);
  }
  if (!plan.aggs.empty()) {
    root = std::make_unique<HashAggregate>(std::move(root), plan.group_by,
                                           plan.aggs);
  }
  return root;
}

Result<ParallelStats> ExecuteParallel(const ParallelPlan& plan,
                                      std::vector<Tuple>* out,
                                      const ParallelOptions& options) {
  // Every scan is dereferenced by the coordinator and the workers alike,
  // so a missing input is rejected before any of them runs.
  auto has_input = [](const ParallelScan& scan) {
    return scan.paged != nullptr || scan.mem != nullptr;
  };
  if (!has_input(plan.probe)) {
    return Status::InvalidArgument("parallel plan has no probe input");
  }
  for (size_t s = 0; s < plan.joins.size(); ++s) {
    if (!has_input(plan.joins[s].build)) {
      return Status::InvalidArgument(
          "join stage " + std::to_string(s) +
          " build scan has neither paged nor mem input");
    }
  }
  ParObs& par_obs = ParObs::Get();
  par_obs.queries.Add(1);

  WorkerPool& pool =
      options.pool != nullptr ? *options.pool : WorkerPool::Default();
  size_t dop = std::max<size_t>(1, options.dop);
  size_t dop_max = std::max(dop, options.dop_max);
  dop_max = std::min(dop_max, pool.size());
  dop = std::min(dop, dop_max);

  MorselFaultGate fault_gate;
  std::atomic<size_t> target_dop{dop};

  ParallelStats pstats;
  pstats.dop_initial = dop;
  par_obs.dop.Set(static_cast<double>(dop));

  // Plan preparation, all coordinator-side, once per query: per-worker
  // state arenas reset (chunks retained), columnar views resolved (so
  // workers never touch the relation's lazy-build mutex), and the
  // per-stage column maps precomputed. The pipeline schema after j joins
  // is build_{j-1} ++ ... ++ build_0 ++ probe (Schema::Join prepends each
  // build side), which colmaps[j] encodes as ColRefs.
  const size_t nstages = plan.joins.size();
  for (size_t wid = 0; wid < dop_max; ++wid) {
    pool.StateArena(wid).Reset();
  }
  const data::ColumnarView* probe_cv =
      plan.probe.mem != nullptr ? &plan.probe.mem->Columnar() : nullptr;
  std::vector<const data::ColumnarView*> build_cv(nstages, nullptr);
  std::vector<size_t> stage_arity(nstages + 1, 0);
  stage_arity[0] = plan.probe.schema().size();
  for (size_t s = 0; s < nstages; ++s) {
    const ParallelScan& build = plan.joins[s].build;
    if (build.mem != nullptr) build_cv[s] = &build.mem->Columnar();
    stage_arity[s + 1] = stage_arity[s] + build.schema().size();
  }
  std::vector<std::vector<ColRef>> colmaps(nstages + 1);
  for (size_t j = 1; j <= nstages; ++j) {
    std::vector<ColRef>& cm = colmaps[j];
    cm.resize(stage_arity[j]);
    size_t off = 0;
    for (size_t k = j; k-- > 0;) {
      size_t build_arity = plan.joins[k].build.schema().size();
      for (size_t c = 0; c < build_arity; ++c) {
        cm[off++] = ColRef{ColSrc::kSeg, static_cast<uint16_t>(k),
                           static_cast<uint32_t>(c)};
      }
    }
    for (size_t c = 0; c < plan.probe.schema().size(); ++c) {
      cm[off++] = ColRef{ColSrc::kScan, 0, static_cast<uint32_t>(c)};
    }
  }
  std::vector<ColRef> proj_colmap(plan.project.size());
  for (size_t j = 0; j < plan.project.size(); ++j) {
    proj_colmap[j] = ColRef{ColSrc::kComputed, 0, static_cast<uint32_t>(j)};
  }
  std::vector<BatchStageTable> btables(nstages);

  // -------------------------------------------------------------------
  // Profiling state (EXPLAIN ANALYZE). The per-morsel row/batch/page
  // tallies are kept unconditionally (they feed query.batch.* and
  // ParallelStats); the pool and allocation baselines and the per-stage
  // fan-out counts are only taken when a profile was requested.
  // -------------------------------------------------------------------
  const bool profiling = options.profile != nullptr;
  const uint64_t prof_host_start = profiling ? obs::NowHostNs() : 0;
  const uint64_t prof_allocs_before = profiling ? obs::AllocCount() : 0;
  uint64_t base_running = 0, base_idle = 0, base_barrier = 0,
           base_latch = 0, base_starved = 0;
  if (profiling) {
    base_running = pool.TotalBusyNs();
    base_idle = pool.IdleNs();
    base_barrier = pool.StateNs(obs::WaitState::kBarrier);
    base_latch = pool.StateNs(obs::WaitState::kLatch);
    base_starved = pool.StateNs(obs::WaitState::kStarved);
  }

  /// Per-join-stage build-phase counters (worker-written, hence atomic).
  struct StageProf {
    std::atomic<uint64_t> raw{0};      // build rows read, pre scan-filter
    std::atomic<uint64_t> rows{0};     // build rows kept (post filter)
    std::atomic<uint64_t> morsels{0};  // build morsels processed
    std::atomic<uint64_t> pages{0};    // build pages touched (paged scans)
    std::atomic<uint64_t> batches{0};  // build batches
    uint64_t allocs = 0;  // coordinator-side delta around the stage job
  };
  std::vector<StageProf> stage_prof(plan.joins.size());

  /// One worker's probe-phase output and tallies; plain fields, since
  /// each sink is only touched by its worker until the job ends.
  struct WorkerSink {
    std::vector<Tuple> rows;  // result rows (non-aggregating plans)
    BatchAggTable btable;     // partial groups (aggregating plans)
    uint64_t rows_out = 0;    // rows out of the pipeline
    uint64_t raw_rows = 0;    // probe rows read, pre scan-filter
    uint64_t scan_rows = 0;   // rows entering the pipeline (post filter)
    uint64_t pages = 0;       // probe pages touched
    uint64_t batches = 0;
    uint64_t steady_allocs = 0;  // operator-new calls inside morsel bodies
    std::vector<uint64_t> stage_out;  // rows out of each join stage
  };
  std::vector<WorkerSink> sinks(dop_max);
  const bool aggregating = !plan.aggs.empty();
  if (aggregating) {
    for (size_t wid = 0; wid < dop_max; ++wid) {
      sinks[wid].btable.Init(&plan.group_by, &plan.aggs,
                             &pool.StateArena(wid));
    }
  }
  if (profiling) {
    for (WorkerSink& sink : sinks) {
      sink.stage_out.assign(plan.joins.size(), 0);
    }
  }
  std::atomic<uint64_t> morsels_done{0};

  // Assembles the plan-shaped profile tree from the phase counters and
  // publishes it. Called on success and on either phase's failure — a
  // failed query still leaves a (partial) profile behind, with the error
  // attributed to the phase that raised it. The tree mirrors
  // BuildSerial() node-for-node: aggregate → project → filter → join
  // chain (each hash-join's children are [build subtree, probe subtree]),
  // so profiles compare across dops.
  auto finish_profile = [&](const Status& status,
                            const std::string& failed_phase) {
    if (!profiling) return;
    QueryProfile& prof = *options.profile;

    auto scan_subtree = [](const ParallelScan& scan, uint64_t raw,
                           uint64_t post, uint64_t pages,
                           uint64_t morsels, uint64_t batches) {
      ProfileNode leaf;
      leaf.name = scan.paged != nullptr
                      ? "paged-scan(" + scan.paged->name() + ")"
                      : "scan(" + scan.mem->name() + ")";
      leaf.rows_out = raw;
      leaf.work_cycles = raw;
      leaf.pages = pages;
      leaf.morsels = morsels;
      leaf.batches = batches;
      if (scan.filter == nullptr) return leaf;
      ProfileNode filter;
      filter.name = "filter(" + scan.filter->ToString() + ")";
      filter.rows_in = raw;
      filter.rows_out = post;
      filter.work_cycles = post;
      if (raw > 0) {
        filter.selectivity =
            static_cast<double>(post) / static_cast<double>(raw);
      }
      filter.children.push_back(std::move(leaf));
      return filter;
    };

    uint64_t shaped_total = 0, raw_probe = 0, scan_probe = 0,
             probe_pages = 0, probe_batches = 0;
    std::vector<uint64_t> stage_total(plan.joins.size(), 0);
    for (const WorkerSink& sink : sinks) {
      shaped_total += sink.rows_out;
      raw_probe += sink.raw_rows;
      scan_probe += sink.scan_rows;
      probe_pages += sink.pages;
      probe_batches += sink.batches;
      for (size_t s = 0; s < sink.stage_out.size(); ++s) {
        stage_total[s] += sink.stage_out[s];
      }
    }
    const uint64_t probe_morsels =
        morsels_done.load(std::memory_order_relaxed);

    ProfileNode node = scan_subtree(plan.probe, raw_probe, scan_probe,
                                    probe_pages, probe_morsels,
                                    probe_batches);
    uint64_t stage_allocs = 0;
    uint64_t stage_morsels = 0;
    for (size_t s = 0; s < plan.joins.size(); ++s) {
      const StageProf& sp = stage_prof[s];
      stage_morsels += sp.morsels.load(std::memory_order_relaxed);
      ProfileNode build = scan_subtree(
          plan.joins[s].build, sp.raw.load(std::memory_order_relaxed),
          sp.rows.load(std::memory_order_relaxed),
          sp.pages.load(std::memory_order_relaxed),
          sp.morsels.load(std::memory_order_relaxed),
          sp.batches.load(std::memory_order_relaxed));
      ProfileNode join;
      join.name = "hash-join";
      join.rows_out = stage_total[s];
      join.work_cycles = join.rows_out;
      join.allocs = sp.allocs;
      stage_allocs += sp.allocs;
      join.rows_in = build.rows_out + node.rows_out;
      join.children.push_back(std::move(build));
      join.children.push_back(std::move(node));
      node = std::move(join);
    }
    if (plan.post_filter != nullptr) {
      ProfileNode filter;
      filter.name = "filter(" + plan.post_filter->ToString() + ")";
      filter.rows_in = node.rows_out;
      filter.rows_out = shaped_total;
      filter.work_cycles = shaped_total;
      if (filter.rows_in > 0) {
        filter.selectivity = static_cast<double>(shaped_total) /
                             static_cast<double>(filter.rows_in);
      }
      filter.children.push_back(std::move(node));
      node = std::move(filter);
    }
    if (!plan.project.empty()) {
      ProfileNode project;
      project.name = "project";
      project.rows_in = node.rows_out;
      project.rows_out = shaped_total;
      project.work_cycles = shaped_total;
      project.children.push_back(std::move(node));
      node = std::move(project);
    }
    if (aggregating) {
      ProfileNode agg;
      agg.name = "aggregate";
      agg.rows_in = node.rows_out;
      agg.rows_out = pstats.rows;
      agg.work_cycles = pstats.rows;
      agg.children.push_back(std::move(node));
      node = std::move(agg);
    }
    prof.root = std::move(node);
    prof.dop = pstats.dop_initial;
    prof.total_rows = pstats.rows;
    prof.total_allocs = obs::AllocCount() - prof_allocs_before;
    // Stage deltas are sub-intervals of the run's delta on one monotonic
    // counter, so the remainder (probe + merge + coordinator) is
    // non-negative; assigning it to the root keeps Σ allocs == total.
    prof.root.allocs += prof.total_allocs - stage_allocs;
    prof.total_cycles = prof.SumCycles();
    prof.total_pages = prof.SumPages();
    prof.total_morsels = probe_morsels + stage_morsels;
    prof.host_ns = obs::NowHostNs() - prof_host_start;
    auto delta = [](uint64_t now, uint64_t base) {
      return now > base ? now - base : 0;
    };
    prof.running_ns = delta(pool.TotalBusyNs(), base_running);
    prof.idle_ns = delta(pool.IdleNs(), base_idle);
    prof.barrier_ns =
        delta(pool.StateNs(obs::WaitState::kBarrier), base_barrier);
    prof.latch_ns = delta(pool.StateNs(obs::WaitState::kLatch), base_latch);
    prof.starved_ns =
        delta(pool.StateNs(obs::WaitState::kStarved), base_starved);
    if (!status.ok()) {
      prof.error = status.message();
      prof.failed_phase = failed_phase;
    }
    const obs::TraceContext& ctx = obs::CurrentContext();
    if (ctx.valid()) prof.trace_id = ctx.trace_id.ToHex();
    PublishProfile(prof);
  };

  // -------------------------------------------------------------------
  // Build phase: one partitioned build + merge per join stage, at the
  // initial dop (the governor engages during the longer probe phase).
  //
  // Scan and merge are one fused pool job per stage: each worker drains
  // scan morsels into its private collector's partitions, arrives at an
  // in-job barrier (a merging worker reads *every* worker's partitions,
  // so none may merge before all have finished scanning), then takes
  // whole partitions from a second cursor. Each partition is merged by
  // exactly one worker, so the merged tables need no locks at probe time.
  // The barrier wait is declared obs::WaitState::kBarrier, so it accrues
  // to proc.worker.barrier_ns — not to busy time, which would inflate
  // exec.worker-util.
  // -------------------------------------------------------------------
  std::atomic<uint64_t> build_rows_total{0};
  for (size_t s = 0; s < nstages; ++s) {
    const ParallelJoinStage& stage = plan.joins[s];
    BatchStageTable& btable = btables[s];
    btable.ncols = stage.build.schema().size();
    btable.key_col = stage.spec.left_col;
    btable.probe_col = stage.spec.right_col;
    StageProf& sprof = stage_prof[s];

    size_t per_morsel = 0;
    size_t units = ScanUnits(stage.build, options, &per_morsel);
    MorselCursor scan_cursor(units, per_morsel);
    MorselCursor merge_cursor(kBatchPartitions, 1);

    std::vector<BuildCollector> collectors(dop);
    for (size_t wid = 0; wid < dop; ++wid) {
      collectors[wid].Init(btable.ncols, btable.key_col,
                           &pool.StateArena(wid));
    }

    // Scans one build morsel into the worker's collector as a column
    // batch (load → scan filter → partitioned append).
    auto build_morsel = [&](size_t wid, const Morsel& morsel) -> Status {
      Arena& scratch = pool.ScratchArena(wid);
      scratch.Reset();
      ColumnBatch batch;
      uint64_t raw = 0;
      if (stage.build.paged != nullptr) {
        DBM_RETURN_NOT_OK(LoadPagedBatch(*stage.build.paged, morsel.begin,
                                         morsel.end, &scratch, &batch,
                                         &raw));
        sprof.pages.fetch_add(morsel.size(), std::memory_order_relaxed);
      } else {
        LoadMemBatch(*build_cv[s], morsel.begin, morsel.end, &scratch,
                     &batch);
        raw = batch.rows;
      }
      size_t n = batch.rows;
      uint32_t* sel = scratch.AllocateArray<uint32_t>(n);
      for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      if (stage.build.filter != nullptr) {
        BatchView scan_view;
        scan_view.batch = &batch;
        scan_view.arity = batch.ncols;
        DBM_RETURN_NOT_OK(FilterBatch(*stage.build.filter, scan_view, sel,
                                      n, &n, &scratch));
      }
      collectors[wid].AddBatch(batch, sel, n);
      build_rows_total.fetch_add(n, std::memory_order_relaxed);
      sprof.raw.fetch_add(raw, std::memory_order_relaxed);
      sprof.rows.fetch_add(n, std::memory_order_relaxed);
      sprof.morsels.fetch_add(1, std::memory_order_relaxed);
      sprof.batches.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };

    std::atomic<bool> scan_failed{false};
    std::mutex barrier_mu;
    std::condition_variable barrier_cv;
    size_t arrived = 0;

    const uint64_t stage_allocs_before =
        profiling ? obs::AllocCount() : 0;
    Status build_status = pool.Run(dop, [&](size_t wid) -> Status {
      Status scan_status = Status::OK();
      Morsel morsel;
      while (scan_cursor.Next(&morsel)) {
        scan_status = fault_gate.Check();
        if (scan_status.ok()) scan_status = build_morsel(wid, morsel);
        if (!scan_status.ok()) {
          // Poison so peers drain promptly — but still arrive at the
          // barrier below: the others are waiting for this worker too.
          scan_cursor.Poison();
          scan_failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
      {
        std::unique_lock<std::mutex> lock(barrier_mu);
        if (++arrived == dop) {
          barrier_cv.notify_all();
        } else {
          obs::WaitStateScope wait(obs::WaitState::kBarrier);
          barrier_cv.wait(lock, [&] { return arrived == dop; });
        }
      }
      DBM_RETURN_NOT_OK(scan_status);
      if (scan_failed.load(std::memory_order_relaxed)) return Status::OK();
      Morsel part;
      while (merge_cursor.Next(&part)) {
        for (size_t p = part.begin; p < part.end; ++p) {
          MergePartition(collectors.data(), dop, p, &pool.StateArena(wid),
                         &btable.parts[p]);
        }
      }
      return Status::OK();
    });
    if (profiling) {
      sprof.allocs = obs::AllocCount() - stage_allocs_before;
    }
    if (!build_status.ok()) {
      pool.PublishWaitStateGauges();
      finish_profile(build_status, "build#" + std::to_string(s));
      return build_status;
    }
  }
  pstats.build_rows = build_rows_total.load(std::memory_order_relaxed);

  // -------------------------------------------------------------------
  // Probe phase: the full pipeline runs morsel-at-a-time per worker.
  // -------------------------------------------------------------------
  // Each probe morsel loads as one column batch and runs the whole
  // pipeline batch-at-a-time. Positions stay dense through the join
  // fan-out; `pos_to_row` maps them back to scan rows and `segs[k][pos]`
  // to the stage-k build row's cells. Everything transient comes from
  // the worker's scratch arena (reset here, chunks retained), so the
  // steady-state body performs zero operator-new calls on mem and paged
  // scans — measured per-thread into sink.steady_allocs.
  auto process_batch = [&](size_t wid, const Morsel& morsel) -> Status {
    WorkerSink& sink = sinks[wid];
    Arena& scratch = pool.ScratchArena(wid);
    const uint64_t allocs_before = obs::AllocCountThisThread();
    scratch.Reset();

    ColumnBatch batch;
    if (plan.probe.paged != nullptr) {
      uint64_t raw = 0;
      DBM_RETURN_NOT_OK(LoadPagedBatch(*plan.probe.paged, morsel.begin,
                                       morsel.end, &scratch, &batch, &raw));
      sink.raw_rows += raw;
      sink.pages += morsel.size();
    } else {
      LoadMemBatch(*probe_cv, morsel.begin, morsel.end, &scratch, &batch);
      sink.raw_rows += batch.rows;
    }
    ++sink.batches;

    // Scan filter → selection vector of surviving scan rows.
    size_t n = batch.rows;
    uint32_t* sel = scratch.AllocateArray<uint32_t>(n);
    for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
    if (plan.probe.filter != nullptr) {
      BatchView scan_view;
      scan_view.batch = &batch;
      scan_view.arity = batch.ncols;
      DBM_RETURN_NOT_OK(FilterBatch(*plan.probe.filter, scan_view, sel, n,
                                    &n, &scratch));
    }
    sink.scan_rows += n;

    // Join fan-out: after each stage, positions are re-densified. The
    // surviving sel doubles as the initial pos→row map.
    const uint32_t* pos_to_row = sel;
    size_t cur_n = n;
    const Cell*** segs =
        nstages > 0 ? scratch.AllocateArray<const Cell**>(nstages)
                    : nullptr;
    for (size_t st = 0; st < nstages && cur_n > 0; ++st) {
      const BatchStageTable& bt = btables[st];
      BatchView view;
      view.batch = &batch;
      view.pos_to_row = pos_to_row;
      view.colmap = st > 0 ? colmaps[st].data() : nullptr;
      view.arity = stage_arity[st];
      view.segs = segs;
      ArenaVec<uint32_t> match_pos;
      ArenaVec<const Cell*> match_build;
      match_pos.Init(&scratch);
      match_build.Init(&scratch);
      uint64_t* hashes = scratch.AllocateArray<uint64_t>(cur_n);
      HashColumn(view, bt.probe_col, nullptr, cur_n, hashes);
      for (uint32_t p = 0; p < cur_n; ++p) {
        const uint64_t h = hashes[p];
        const BatchStagePart& part = bt.parts[PartitionOf(h)];
        if (part.rows == 0) continue;
        const Cell key = view.Get(bt.probe_col, p);
        for (uint32_t r = part.heads[BucketOf(h, part.mask)]; r != 0;
             r = part.next[r - 1]) {
          if (part.hashes[r - 1] != h) continue;
          const Cell* row = part.cells + size_t{r - 1} * bt.ncols;
          if (CompareCells(row[bt.key_col], key) == 0) {
            match_pos.PushBack(p);
            match_build.PushBack(row);
          }
        }
      }
      size_t m = match_pos.size();
      uint32_t* new_rows = scratch.AllocateArray<uint32_t>(m);
      for (size_t i = 0; i < m; ++i) new_rows[i] = pos_to_row[match_pos[i]];
      for (size_t k = 0; k < st; ++k) {
        const Cell** remap = scratch.AllocateArray<const Cell*>(m);
        for (size_t i = 0; i < m; ++i) remap[i] = segs[k][match_pos[i]];
        segs[k] = remap;
      }
      segs[st] = match_build.data();
      pos_to_row = new_rows;
      cur_n = m;
      if (profiling) sink.stage_out[st] += m;
    }

    BatchView full;
    full.batch = &batch;
    full.pos_to_row = pos_to_row;
    full.colmap = nstages > 0 ? colmaps[nstages].data() : nullptr;
    full.arity = stage_arity[nstages];
    full.segs = segs;

    // Post-filter → selection over pipeline positions.
    uint32_t* shaped_sel = nullptr;
    size_t shaped_n = cur_n;
    if (plan.post_filter != nullptr) {
      shaped_sel = scratch.AllocateArray<uint32_t>(cur_n);
      for (size_t i = 0; i < cur_n; ++i) {
        shaped_sel[i] = static_cast<uint32_t>(i);
      }
      DBM_RETURN_NOT_OK(FilterBatch(*plan.post_filter, full, shaped_sel,
                                    cur_n, &shaped_n, &scratch));
    }

    // Projection → computed columns (dense, so the selection resets).
    BatchView shaped = full;
    const uint32_t* out_sel = shaped_sel;
    size_t out_n = shaped_n;
    if (!plan.project.empty()) {
      const Cell** computed =
          scratch.AllocateArray<const Cell*>(plan.project.size());
      for (size_t j = 0; j < plan.project.size(); ++j) {
        Cell* col = scratch.AllocateArray<Cell>(shaped_n);
        DBM_RETURN_NOT_OK(EvalBatch(*plan.project[j], full, shaped_sel,
                                    shaped_n, col, &scratch));
        computed[j] = col;
      }
      shaped = BatchView();
      shaped.colmap = proj_colmap.data();
      shaped.arity = plan.project.size();
      shaped.computed = computed;
      out_sel = nullptr;
    }

    if (aggregating) {
      sink.btable.Fold(shaped, out_sel, out_n);
    } else {
      for (size_t i = 0; i < out_n; ++i) {
        uint32_t pos = out_sel != nullptr ? out_sel[i]
                                          : static_cast<uint32_t>(i);
        Tuple t;
        t.values.reserve(shaped.arity);
        for (size_t c = 0; c < shaped.arity; ++c) {
          t.values.push_back(CellToValue(shaped.Get(c, pos)));
        }
        sink.rows.push_back(std::move(t));
      }
    }
    sink.rows_out += out_n;
    sink.steady_allocs += obs::AllocCountThisThread() - allocs_before;
    return Status::OK();
  };

  size_t per_morsel = 0;
  size_t units = ScanUnits(plan.probe, options, &per_morsel);
  MorselCursor probe_cursor(units, per_morsel);
  pstats.morsels = probe_cursor.total_morsels();

  // Coordinator loop: while the job runs, sample utilization, publish
  // the exec.* metrics and let the governor move the dop target. The
  // MetricBus is coordinator-only by contract, so all publishing happens
  // here, never on workers.
  double util_sum = 0;
  auto coordinate = [&](WorkerPool::Job* job) {
    uint64_t last_busy = pool.TotalBusyNs();
    auto last_wall = std::chrono::steady_clock::now();
    while (!job->WaitFor(options.govern_interval)) {
      uint64_t busy = pool.TotalBusyNs();
      auto wall = std::chrono::steady_clock::now();
      uint64_t wall_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall -
                                                               last_wall)
              .count());
      size_t active = target_dop.load(std::memory_order_relaxed);
      double util =
          wall_ns == 0
              ? 0.0
              : 100.0 * static_cast<double>(busy - last_busy) /
                    (static_cast<double>(wall_ns) *
                     static_cast<double>(active == 0 ? 1 : active));
      util = std::min(util, 100.0);
      last_busy = busy;
      last_wall = wall;
      ++pstats.samples;
      util_sum += util;

      GovernorSample sample;
      sample.dop = active;
      sample.dop_max = dop_max;
      sample.worker_util = util;
      sample.morsels_done = morsels_done.load(std::memory_order_relaxed);
      sample.barrier_ns = pool.StateNs(obs::WaitState::kBarrier);
      sample.starved_ns = pool.StateNs(obs::WaitState::kStarved);

      par_obs.dop.Set(static_cast<double>(active));
      par_obs.morsels.Set(static_cast<double>(sample.morsels_done));
      par_obs.util.Set(util);
      pool.PublishWaitStateGauges();
      if (options.bus != nullptr) {
        SimTime at = static_cast<SimTime>(pstats.samples);
        options.bus->Publish("exec.dop", static_cast<double>(active), at);
        options.bus->Publish("exec.morsels",
                             static_cast<double>(sample.morsels_done), at);
        options.bus->Publish("exec.worker-util", util, at);
      }
      if (options.governor) {
        size_t want = options.governor(sample);
        if (want != 0) {
          want = std::clamp<size_t>(want, 1, dop_max);
          if (want != active) {
            target_dop.store(want, std::memory_order_relaxed);
            ++pstats.dop_switches;
          }
        }
      }
    }
  };

  Status probe_status = RunMorselLoop(
      pool, dop_max, &target_dop, &probe_cursor,
      [&](size_t wid, const Morsel& morsel) -> Status {
        DBM_RETURN_NOT_OK(fault_gate.Check());
        DBM_RETURN_NOT_OK(process_batch(wid, morsel));
        morsels_done.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      coordinate);
  if (!probe_status.ok()) {
    pool.PublishWaitStateGauges();
    finish_profile(probe_status, "probe");
    return probe_status;
  }

  // -------------------------------------------------------------------
  // Merge sinks in worker order (deterministic given a fixed schedule;
  // consumers normalize order before comparing across dops anyway).
  // -------------------------------------------------------------------
  uint64_t processed = 0, raw_probe = 0, scan_probe = 0;
  for (const WorkerSink& sink : sinks) {
    processed += sink.rows_out;
    raw_probe += sink.raw_rows;
    scan_probe += sink.scan_rows;
    pstats.batches += sink.batches;
    pstats.steady_allocs += sink.steady_allocs;
  }
  if (aggregating) {
    // Each worker's table folds its groups straight into one accumulator
    // (FoldPartial, in the table's insertion order); Finish() then emits
    // them in the accumulator's deterministic key order, exactly as the
    // serial HashAggregate does.
    GroupAccumulator merged(plan.group_by, plan.aggs);
    for (const WorkerSink& sink : sinks) sink.btable.ExportTo(&merged);
    std::vector<Tuple> rows = merged.Finish();
    pstats.rows = rows.size();
    if (out != nullptr) {
      out->reserve(out->size() + rows.size());
      for (Tuple& row : rows) out->push_back(std::move(row));
    }
  } else {
    pstats.rows = processed;
    if (out != nullptr) {
      out->reserve(out->size() + processed);
      for (WorkerSink& sink : sinks) {
        for (Tuple& row : sink.rows) out->push_back(std::move(row));
      }
    }
  }

  pstats.dop_final = target_dop.load(std::memory_order_relaxed);
  pstats.worker_util =
      pstats.samples == 0 ? 0.0
                          : util_sum / static_cast<double>(pstats.samples);
  par_obs.morsels.Set(static_cast<double>(
      morsels_done.load(std::memory_order_relaxed)));
  par_obs.morsels_total.Add(morsels_done.load(std::memory_order_relaxed));
  // Deterministic work measure, the same at every dop: rows flowed
  // through the pipeline plus rows built.
  par_obs.work_cycles.Add(processed + pstats.build_rows);
  uint64_t batch_rows = raw_probe;
  for (const StageProf& sp : stage_prof) {
    pstats.batches += sp.batches.load(std::memory_order_relaxed);
    batch_rows += sp.raw.load(std::memory_order_relaxed);
  }
  par_obs.batch_batches.Add(pstats.batches);
  par_obs.batch_rows.Add(batch_rows);
  par_obs.batch_selectivity.Set(
      raw_probe == 0 ? 1.0
                     : static_cast<double>(scan_probe) /
                           static_cast<double>(raw_probe));
  pool.PublishWaitStateGauges();
  finish_profile(Status::OK(), "");
  return pstats;
}

}  // namespace dbm::query
