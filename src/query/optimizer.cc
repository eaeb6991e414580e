#include "query/optimizer.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace dbm::query {

namespace {

// The cost model: relative per-row prices, not calibrated times.
constexpr double kBuildCostPerRow = 2.0;
constexpr double kProbeCostPerRow = 1.0;
constexpr double kNljCostPerPair = 0.1;
constexpr double kOutputCostPerRow = 0.5;
// Below this many estimated inner rows, nested loops wins.
constexpr double kNljThreshold = 64;

}  // namespace

const char* JoinAlgorithmName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop: return "nested-loop";
    case JoinAlgorithm::kHashBuildLeft: return "hash(build=left)";
    case JoinAlgorithm::kHashBuildRight: return "hash(build=right)";
  }
  return "?";
}

OperatorPtr JoinPlan::Build(const JoinQuery& query) const {
  OperatorPtr left = std::make_unique<MemSource>(query.left.relation);
  OperatorPtr right = std::make_unique<MemSource>(query.right.relation);
  switch (algorithm) {
    case JoinAlgorithm::kNestedLoop:
      // Inner (materialised) side is the right child.
      return std::make_unique<NestedLoopJoin>(std::move(left),
                                              std::move(right), query.spec);
    case JoinAlgorithm::kHashBuildLeft:
      return std::make_unique<HashJoin>(std::move(left), std::move(right),
                                        query.spec);
    case JoinAlgorithm::kHashBuildRight: {
      // Build on the right input: flip children and the spec; the output
      // schema flips too (right columns first) — callers that care about
      // column order use the plan's schema.
      JoinSpec flipped{query.spec.right_col, query.spec.left_col};
      return std::make_unique<HashJoin>(std::move(right), std::move(left),
                                        flipped);
    }
  }
  return nullptr;
}

double Optimizer::EstimateJoinOutput(const JoinQuery& query) const {
  double l = query.left.EstimatedRows();
  double r = query.right.EstimatedRows();
  double vl = 1, vr = 1;
  if (query.left.stats != nullptr) {
    auto it = query.left.stats->columns.find(query.left_join_column);
    if (it != query.left.stats->columns.end()) {
      vl = std::max<double>(1, static_cast<double>(it->second.distinct_estimate));
    }
  }
  if (query.right.stats != nullptr) {
    auto it = query.right.stats->columns.find(query.right_join_column);
    if (it != query.right.stats->columns.end()) {
      vr = std::max<double>(1, static_cast<double>(it->second.distinct_estimate));
    }
  }
  return l * r / std::max(vl, vr);
}

Result<JoinPlan> Optimizer::Plan(const JoinQuery& query) const {
  return PlanWithCardinalities(query, query.left.EstimatedRows(),
                               query.right.EstimatedRows());
}

Result<JoinPlan> Optimizer::PlanWithCardinalities(const JoinQuery& query,
                                                  double left_rows,
                                                  double right_rows) const {
  if (query.left.relation == nullptr || query.right.relation == nullptr) {
    return Status::InvalidArgument("join query missing an input relation");
  }
  JoinPlan plan;
  plan.estimated_output = EstimateJoinOutput(query);
  double out_cost = plan.estimated_output * kOutputCostPerRow;

  // Candidate costs; the cheapest applicable algorithm wins.
  struct Candidate {
    JoinAlgorithm algorithm;
    double cost;
    double build_rows;
  };
  std::vector<Candidate> candidates;

  // Nested loop is a candidate only when the materialised inner is tiny
  // (beyond that its quadratic term always loses anyway and the small-
  // table constant factors the model ignores would dominate).
  if (std::min(left_rows, right_rows) <= kNljThreshold) {
    candidates.push_back({JoinAlgorithm::kNestedLoop,
                          left_rows * right_rows * kNljCostPerPair + out_cost,
                          right_rows});
  }
  candidates.push_back({JoinAlgorithm::kHashBuildLeft,
                        left_rows * kBuildCostPerRow +
                            right_rows * kProbeCostPerRow + out_cost,
                        left_rows});
  candidates.push_back({JoinAlgorithm::kHashBuildRight,
                        right_rows * kBuildCostPerRow +
                            left_rows * kProbeCostPerRow + out_cost,
                        right_rows});

  const Candidate* best = &candidates.front();
  for (const Candidate& c : candidates) {
    if (c.cost < best->cost) best = &c;
  }
  plan.algorithm = best->algorithm;
  plan.estimated_cost = best->cost;
  plan.estimated_build_rows = best->build_rows;
  return plan;
}

}  // namespace dbm::query
