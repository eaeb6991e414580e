// The executor: drives an operator tree over simulated time, and the
// mid-query re-optimiser of scenario 3.
//
// Safe points: the executor pauses bookkeeping every K tuples — "the
// original query plan included safe points which allow the system to stop
// ... at a safe time and continue" (§4). The re-optimiser uses them to
// compare observed cardinalities with the optimiser's estimates and, when
// they diverge beyond a threshold, asks the State Manager to bring the
// query to a consistent state, re-plans with corrected numbers (e.g.
// swapping the hash join's build side — the paper's "change the join's
// inner-loop to the outer-loop"), and resumes.

#ifndef DBM_QUERY_EXECUTOR_H_
#define DBM_QUERY_EXECUTOR_H_

#include <functional>
#include <vector>

#include "adapt/session.h"
#include "query/optimizer.h"
#include "query/profile.h"

namespace dbm::query {

struct ExecStats {
  uint64_t rows = 0;
  SimTime started_at = 0;
  SimTime first_row_at = -1;
  SimTime finished_at = 0;
  uint64_t safe_points = 0;
  uint64_t reoptimizations = 0;
  SimTime wasted_time = 0;  // simulated time discarded by plan restarts
  std::string final_plan;

  SimTime Latency() const { return finished_at - started_at; }
  SimTime TimeToFirstRow() const {
    return first_row_at < 0 ? -1 : first_row_at - started_at;
  }
};

/// Execution knobs.
struct ExecOptions {
  /// CPU time charged per produced tuple (µs of simulated time).
  SimTime cpu_per_tuple = 1;
  /// Safe point every K produced/consumed tuples (0 = none).
  uint64_t safe_point_every = 256;
  /// Callback at each safe point; returning false aborts execution.
  std::function<bool(const ExecStats&)> on_safe_point;
  SimTime start_time = 0;
  /// EXPLAIN ANALYZE: when set, the executor fills it with the run's
  /// annotated operator tree (rows/cycles per operator from
  /// OperatorStats, allocation and host-time deltas at run granularity)
  /// and publishes its tail to obs::ProfilePlane. Null = no profiling,
  /// no overhead beyond one branch.
  QueryProfile* profile = nullptr;
};

/// Runs the tree to completion, collecting output. NotReady steps advance
/// the simulated clock to the operator's ready time (the executor "waits").
Result<ExecStats> Execute(Operator* root, std::vector<Tuple>* out,
                          const ExecOptions& options = ExecOptions());

/// Scenario 3: adaptive execution of a two-table join.
///
/// Starts with the optimiser's plan (built from possibly-wrong
/// statistics). While the hash build runs, it counts actual build rows at
/// safe points; once the count exceeds `divergence_threshold` × estimate
/// AND the other side now looks cheaper to build, it checkpoints progress
/// with the State Manager, re-plans with corrected cardinalities and
/// restarts with the better plan. Restart cost is honestly charged: all
/// simulated time spent on the abandoned plan counts toward the total.
class AdaptiveJoinExecutor {
 public:
  AdaptiveJoinExecutor(Optimizer optimizer, adapt::StateManager* state_mgr)
      : optimizer_(optimizer), state_mgr_(state_mgr) {}

  struct Options {
    double divergence_threshold = 2.0;
    uint64_t safe_point_every = 128;
    SimTime cpu_per_tuple = 1;
    bool allow_reoptimization = true;  // false = static baseline
    /// Consulted after the executor has decided a re-optimisation is
    /// worthwhile but before it commits; returning false keeps the
    /// current plan. Lets an external policy layer (the Fig-1 session
    /// manager in scenario 3's traced mode) arbitrate the switch through
    /// its rule engine instead of the executor's hard-coded heuristic.
    std::function<bool(uint64_t actual_build_rows,
                       double estimated_build_rows,
                       const JoinPlan& corrected_plan)>
        reopt_arbiter;
  };

  Result<ExecStats> Run(const JoinQuery& query, std::vector<Tuple>* out,
                        const Options& options);
  Result<ExecStats> Run(const JoinQuery& query, std::vector<Tuple>* out) {
    return Run(query, out, Options{});
  }

 private:
  Optimizer optimizer_;
  adapt::StateManager* state_mgr_;
};

}  // namespace dbm::query

#endif  // DBM_QUERY_EXECUTOR_H_
