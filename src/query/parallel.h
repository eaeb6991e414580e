// Morsel-driven parallel query execution (the tentpole of the parallel
// plane).
//
// A ParallelPlan is a right-deep select-project-join-aggregate pipeline:
// one driving probe scan, a chain of hash-join stages (each with its own
// build-side scan), then optional filter / projection / grouped
// aggregation. ExecuteParallel runs it on the columnar batch engine
// (query/batch.h) across the vCPU WorkerPool, at every dop:
//
//   build phase   per join stage: workers scan the build side in morsels
//                 into per-worker hash-partitioned collectors, then (one
//                 barrier) merge partitions in parallel — each of the
//                 partitions is owned by exactly one merging worker, so
//                 the merged tables need no locks at probe time.
//   probe phase   workers draw probe morsels from one atomic cursor and
//                 run the whole pipeline batch-at-a-time: filter, probe
//                 each stage's table, post-filter, project, then either
//                 append to a per-worker row sink or fold into a
//                 per-worker aggregation table. Sinks merge at the end in
//                 worker order.
//
// dop=1 is the same engine on one worker. The serial executor over
// BuildSerial()'s operator tree is the reference the tests and
// bench_parallel_exec hold every dop to: the same result set
// (order-normalized; parallel output order depends on the morsel
// schedule) and the same EXPLAIN ANALYZE tree.
//
// A query owns its pool for its whole duration at every dop, dop=1
// included: it takes the pool's single job slot and resets the workers'
// state arenas. Call ExecuteParallel from outside the pool's workers, and
// run one query at a time per pool.
//
// Mid-query dop adaptation: the coordinator samples worker utilization
// every govern_interval, publishes `exec.dop`, `exec.morsels` and
// `exec.worker-util` (percent) on the MetricBus, and asks the governor
// callback for a new target dop — scenario 3 answers through the Table-2
// rule `If exec.worker-util > 90 then SWITCH(dop.2, dop.8)` and the
// Fig-1 session manager. Workers whose vCPU id moves above the target
// park between morsels; ones below it resume. Worker 0 never parks.
//
// Fault containment: each morsel passes the `query.morsel` fault point.
// An injected fault (or any worker-side error) poisons the morsel cursor
// so every worker drains promptly, and the query returns the error — the
// pool itself stays healthy for the next query.

#ifndef DBM_QUERY_PARALLEL_H_
#define DBM_QUERY_PARALLEL_H_

#include <vector>

#include "adapt/metrics.h"
#include "query/aggregate.h"
#include "query/executor.h"
#include "query/morsel.h"
#include "query/pool.h"
#include "storage/paged_relation.h"

namespace dbm::query {

/// A scan leaf: exactly one of `paged` / `mem` is set (ExecuteParallel
/// rejects a scan with neither); `filter` (may be null) is applied as
/// the scan's σ.
struct ParallelScan {
  const storage::PagedRelation* paged = nullptr;
  const data::Relation* mem = nullptr;
  ExprPtr filter;

  const data::Schema& schema() const {
    return paged != nullptr ? paged->schema() : mem->schema();
  }
};

/// One hash-join stage. `spec.left_col` indexes the build scan's schema,
/// `spec.right_col` the pipeline's schema *at this stage* (probe scan
/// columns first, widened by earlier stages' build columns on the left,
/// exactly as Schema::Join / Tuple::Concat lay them out).
struct ParallelJoinStage {
  ParallelScan build;
  JoinSpec spec;
};

/// Right-deep select-project-join-aggregate pipeline.
struct ParallelPlan {
  ParallelScan probe;
  std::vector<ParallelJoinStage> joins;
  /// Applied after all joins (over the joined schema). May be null.
  ExprPtr post_filter;
  /// Projection; empty = no projection. `project_schema` names the output.
  std::vector<ExprPtr> project;
  data::Schema project_schema;
  /// Aggregation; empty `aggs` = no aggregation.
  std::vector<size_t> group_by;
  std::vector<AggSpec> aggs;

  /// The plan's output schema (after projection/aggregation).
  data::Schema OutputSchema() const;
};

/// What the governor sees at each sampling interval.
struct GovernorSample {
  size_t dop = 0;              // currently active workers
  size_t dop_max = 0;          // job width (the scale-up ceiling)
  double worker_util = 0;      // percent of the interval spent working
  uint64_t morsels_done = 0;   // probe morsels completed so far
  /// Cumulative pool wait-state ledgers (host ns) at sample time, so a
  /// governor (or a Table-2 rule over proc.worker.* gauges) can tell
  /// "saturated" from "barrier-bound" before scaling dop.
  uint64_t barrier_ns = 0;
  uint64_t starved_ns = 0;
};

/// Returns the desired dop (0 = keep current). Called from the
/// coordinator thread only — safe to touch the MetricBus / session
/// manager from inside.
using DopGovernor = std::function<size_t(const GovernorSample&)>;

struct ParallelOptions {
  size_t dop = 1;
  /// Scale-up ceiling for the governor (0 = dop; ≥ dop otherwise). The
  /// pool job is launched this wide; workers in [dop, dop_max) start
  /// parked.
  size_t dop_max = 0;
  /// Morsel sizes: pages per morsel for paged scans, rows per morsel for
  /// in-memory scans.
  size_t morsel_pages = 4;
  size_t morsel_rows = 1024;
  /// Pool to run on (nullptr = WorkerPool::Default()).
  WorkerPool* pool = nullptr;
  /// When set, the coordinator publishes exec.* metrics here each
  /// sampling interval.
  adapt::MetricBus* bus = nullptr;
  DopGovernor governor;
  std::chrono::nanoseconds govern_interval = std::chrono::milliseconds(2);
  /// EXPLAIN ANALYZE: when set, filled with the run's annotated plan
  /// tree — per-stage rows/cycles/allocs/pages/morsels from the phase
  /// counters, pool wait-state deltas, and failure attribution when the
  /// query errors. The tree has BuildSerial()'s shape, so it compares
  /// node-for-node with the serial executor's profile of the same plan
  /// and across dops. Null = no profiling (no per-row overhead beyond a
  /// dead branch).
  QueryProfile* profile = nullptr;
};

struct ParallelStats {
  uint64_t rows = 0;          // result rows
  uint64_t morsels = 0;       // probe morsels processed
  uint64_t build_rows = 0;    // total rows across all build phases
  size_t dop_initial = 1;
  size_t dop_final = 1;
  uint64_t dop_switches = 0;  // governor-driven target changes
  double worker_util = 0;     // mean over sampling intervals (percent)
  uint64_t samples = 0;       // governor sampling intervals observed
  uint64_t batches = 0;       // column batches processed
  /// Operator-new calls inside worker morsel bodies during the probe
  /// phase (thread-local alloc-hook deltas; build morsels are not
  /// counted). Zero in steady state for aggregation plans over mem or
  /// paged probe scans.
  uint64_t steady_allocs = 0;
};

/// Builds the serial operator tree for `plan` — the reference that the
/// equivalence tests and bench_parallel_exec hold ExecuteParallel to,
/// run by the serial Execute.
Result<OperatorPtr> BuildSerial(const ParallelPlan& plan);

/// Runs `plan` at options.dop across the worker pool, appending result
/// rows to `out` (order depends on the morsel schedule; normalize before
/// comparing). Returns InvalidArgument when a scan has no input.
Result<ParallelStats> ExecuteParallel(
    const ParallelPlan& plan, std::vector<Tuple>* out,
    const ParallelOptions& options = ParallelOptions());

}  // namespace dbm::query

#endif  // DBM_QUERY_PARALLEL_H_
