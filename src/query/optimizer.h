// The cost-based optimiser and the SPJ query description it plans.
//
// Deliberately classical: cardinality estimates come from RelationStats
// (which scenarios perturb to be wrong), join output is estimated with
// the standard |L||R|/max(V(L,a),V(R,b)) formula, and the physical choice
// is hash join with the smaller estimated input as build side (nested
// loops below a small-table threshold). Its *fallibility* is the point:
// the mid-query re-optimiser in executor.h corrects it at run time.

#ifndef DBM_QUERY_OPTIMIZER_H_
#define DBM_QUERY_OPTIMIZER_H_

#include <string>

#include "data/relation.h"
#include "query/join.h"
#include "query/operator.h"

namespace dbm::query {

using data::RelationStats;

/// A table input: the relation and the statistics the optimiser believes
/// (possibly stale).
struct TableInput {
  const Relation* relation = nullptr;
  const RelationStats* stats = nullptr;

  /// Estimated cardinality: the statistics' row count, or the true size
  /// when there are no statistics.
  double EstimatedRows() const {
    return stats != nullptr ? static_cast<double>(stats->row_count)
                            : static_cast<double>(relation->size());
  }
};

/// A two-table equi-join query (scenario 3 joins two inputs).
struct JoinQuery {
  TableInput left;
  TableInput right;
  JoinSpec spec;  // columns in the input relations' schemas
  std::string left_join_column;   // for V(col) lookup in stats
  std::string right_join_column;
};

/// Physical operator choices.
enum class JoinAlgorithm : uint8_t {
  kNestedLoop,
  kHashBuildLeft,
  kHashBuildRight,
};
const char* JoinAlgorithmName(JoinAlgorithm a);

/// The optimiser's decision, re-buildable (re-optimisation reconstructs
/// the tree with a different decision).
struct JoinPlan {
  JoinAlgorithm algorithm = JoinAlgorithm::kHashBuildLeft;
  double estimated_cost = 0;
  double estimated_output = 0;
  double estimated_build_rows = 0;

  /// Instantiates the operator tree for this decision.
  OperatorPtr Build(const JoinQuery& query) const;
};

class Optimizer {
 public:
  /// Estimated join output cardinality.
  double EstimateJoinOutput(const JoinQuery& query) const;

  /// Chooses the join algorithm and build side from the estimates.
  Result<JoinPlan> Plan(const JoinQuery& query) const;

  /// Plans with explicitly overridden cardinalities (used by the
  /// re-optimiser once true counts are known).
  Result<JoinPlan> PlanWithCardinalities(const JoinQuery& query,
                                         double left_rows,
                                         double right_rows) const;
};

}  // namespace dbm::query

#endif  // DBM_QUERY_OPTIMIZER_H_
