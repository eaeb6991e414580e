// EXPLAIN ANALYZE: the per-query profile tree.
//
// A QueryProfile is the annotated plan tree a profiled Execute /
// ExecuteParallel run leaves behind: per operator, the rows in and out,
// deterministic work cycles, allocations (obs::AllocCount deltas — zero
// when the counting allocator is not linked), pages touched by paged
// scans, and morsels processed. "Cycles" follow the repo's simulated-
// cycle convention (the same deterministic work measure bench_diff gates
// as `query.pexec.work_cycles`: rows flowed plus rows built), so a
// node's cycles are identical at every dop and sum exactly to the
// query's total — which is what makes them attributable evidence rather
// than host-noise.
//
// The same plan profiles to the same tree at every dop and under the
// serial executor: ExecuteParallel assembles plan-shaped nodes from its
// phase counters, the serial Execute maps BuildSerial's operator stats
// onto the same shape, and tests/profile_test.cc holds every dop equal
// to the serial profile node-for-node.
//
// Renderers: ToText() (the EXPLAIN ANALYZE console tree), ToJson()
// (machine-readable, also spliced into /obs/profile and the flight
// recorder via obs::ProfilePlane), ToCollapsed() (collapsed-stack lines
// weighted by exclusive cycles, for flamegraph.pl / speedscope).

#ifndef DBM_QUERY_PROFILE_H_
#define DBM_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/operator.h"

namespace dbm::query {

/// One operator's annotations. Plain values, copyable; children owned
/// by value so a profile outlives the operators it describes.
struct ProfileNode {
  std::string name;
  uint64_t rows_in = 0;    // rows entering (Σ direct children's rows_out)
  uint64_t rows_out = 0;   // rows produced
  uint64_t work_cycles = 0;  // deterministic simulated work (= rows_out)
  uint64_t allocs = 0;     // operator-new count attributed here
  uint64_t pages = 0;      // pages touched (paged scans)
  uint64_t morsels = 0;    // morsels processed (parallel phases)
  uint64_t batches = 0;    // column batches processed (parallel phases)
  double selectivity = -1;  // filters: rows_out / rows_in (-1 = n/a)
  std::vector<ProfileNode> children;
};

struct QueryProfile {
  std::string query = "query";  // caller label, shows up in exports
  std::string trace_id;         // hex id of the enclosing trace, or ""
  ProfileNode root;
  size_t dop = 1;

  // Totals measured at run granularity. cycles/rows are invariant
  // across dop; allocs/pages/morsels/host_ns are what the run actually
  // did. The tree's per-node attribution sums exactly to these (the
  // profiler assigns measured remainders to the root node rather than
  // dropping them).
  uint64_t total_rows = 0;
  uint64_t total_cycles = 0;
  uint64_t total_allocs = 0;
  uint64_t total_pages = 0;
  uint64_t total_morsels = 0;
  uint64_t host_ns = 0;

  // Worker wait-state deltas across the run (pool-wide, host ns;
  // all zero under the serial executor). See obs/waitstate.h.
  uint64_t running_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t barrier_ns = 0;
  uint64_t latch_ns = 0;
  uint64_t starved_ns = 0;

  // Failure attribution: empty on success, else the error and the
  // phase it surfaced in ("build#0", "probe", ...).
  std::string error;
  std::string failed_phase;

  /// Σ work_cycles / allocs / pages over the tree (the invariants the
  /// tests pin: each equals the matching total).
  uint64_t SumCycles() const;
  uint64_t SumAllocs() const;
  uint64_t SumPages() const;

  /// The EXPLAIN ANALYZE console tree.
  std::string ToText() const;
  /// Machine-readable form; stable field names, documented in
  /// docs/OBSERVABILITY.md.
  std::string ToJson() const;
  /// Collapsed-stack lines (`label;path;to;node cycles`), one per node
  /// with nonzero exclusive cycles, plus wait-state lines.
  std::string ToCollapsed() const;
};

/// Generic operator-shaped profile: one node per operator in the
/// executed tree, rows from OperatorStats, cycles = rows produced. Used
/// by the serial executor for arbitrary trees.
ProfileNode ProfileFromOperators(Operator& root);

/// Records the profile's flat tail (JSON + collapsed stacks) into the
/// process-wide obs::ProfilePlane so /obs/profile and the flight
/// recorder can serve it after the query object is gone.
void PublishProfile(const QueryProfile& profile);

}  // namespace dbm::query

#endif  // DBM_QUERY_PROFILE_H_
