#include <gtest/gtest.h>

#include <algorithm>

#include "query/eddy.h"
#include "query/executor.h"
#include "query/join.h"
#include "query/ripple.h"

namespace dbm::query {
namespace {

using data::Field;
using data::Relation;
using data::ValueType;

Relation SmallTable(const std::string& name, std::vector<int64_t> keys) {
  Relation rel(name,
               Schema({{"k", ValueType::kInt}, {"tag", ValueType::kString}}));
  for (size_t i = 0; i < keys.size(); ++i) {
    rel.InsertUnchecked(
        Tuple({keys[i], name + "#" + std::to_string(i)}));
  }
  return rel;
}

/// Runs an operator tree to completion, ignoring time.
std::vector<Tuple> Drain(Operator* op) {
  std::vector<Tuple> out;
  EXPECT_TRUE(op->Open().ok());
  SimTime now = 0;
  while (true) {
    auto step = op->Next(now);
    EXPECT_TRUE(step.ok()) << step.status().ToString();
    if (!step.ok()) break;
    if (step->kind == Step::Kind::kEnd) break;
    if (step->kind == Step::Kind::kNotReady) {
      now = step->ready_at;
      continue;
    }
    now += 1;
    out.push_back(std::move(step->tuple));
  }
  EXPECT_TRUE(op->Close().ok());
  return out;
}

std::multiset<std::string> Canon(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const Tuple& t : rows) out.insert(t.ToString());
  return out;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ExprTest, CompareAndLogic) {
  Tuple row({int64_t{5}, std::string("x")});
  auto pred = And(Gt(Col(0), Lit(int64_t{3})), Eq(Col(1), Lit(std::string("x"))));
  auto v = pred->Test(row);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
  auto pred2 = Or(Lt(Col(0), Lit(int64_t{3})), Not(Eq(Col(1), Lit(std::string("x")))));
  EXPECT_FALSE(*pred2->Test(row));
}

TEST(ExprTest, NullPropagatesToFalse) {
  Tuple row({Value{}});
  auto pred = Gt(Col(0), Lit(int64_t{3}));
  auto v = pred->Test(row);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(*v);
}

TEST(ExprTest, Arithmetic) {
  Tuple row({int64_t{7}, 2.0});
  auto e = Arith(ArithOp::kMul, Col(0), Col(1));
  auto v = e->Eval(row);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*v), 14.0);
  auto bad = Arith(ArithOp::kDiv, Col(0), Lit(int64_t{0}));
  EXPECT_FALSE(bad->Eval(row).ok());
}

TEST(ExprTest, ColumnByName) {
  Schema s({{"id", ValueType::kInt}, {"age", ValueType::kInt}});
  auto col = Col(s, "age");
  ASSERT_TRUE(col.ok());
  Tuple row({int64_t{1}, int64_t{33}});
  EXPECT_EQ(std::get<int64_t>(*(*col)->Eval(row)), 33);
  EXPECT_FALSE(Col(s, "ghost").ok());
}

// ---------------------------------------------------------------------------
// Basic operators
// ---------------------------------------------------------------------------

TEST(OperatorTest, FilterProjectLimit) {
  Relation rel = SmallTable("t", {1, 2, 3, 4, 5, 6});
  auto src = std::make_unique<MemSource>(&rel);
  auto filt = std::make_unique<FilterOp>(std::move(src),
                                         Gt(Col(0), Lit(int64_t{2})));
  auto proj = std::make_unique<ProjectOp>(
      std::move(filt), std::vector<ExprPtr>{Col(0)},
      Schema({{"k", ValueType::kInt}}));
  auto limit = std::make_unique<LimitOp>(std::move(proj), 3);
  auto rows = Drain(limit.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(rows[0].at(0)), 3);
  EXPECT_EQ(rows[0].size(), 1u);
}

TEST(OperatorTest, DelayedSourceTimesArrivals) {
  Relation rel = SmallTable("t", {1, 2, 3});
  DelayedSource src(&rel, {100, 10, 0, 0});
  ASSERT_TRUE(src.Open().ok());
  auto step = src.Next(0);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->kind, Step::Kind::kNotReady);
  EXPECT_EQ(step->ready_at, 100);
  step = src.Next(100);
  EXPECT_EQ(step->kind, Step::Kind::kTuple);
  step = src.Next(105);  // next arrives at 110
  EXPECT_EQ(step->kind, Step::Kind::kNotReady);
  EXPECT_EQ(step->ready_at, 110);
}

TEST(OperatorTest, DelayedSourceBursts) {
  Relation rel = SmallTable("t", {1, 2, 3, 4});
  DelayedSource src(&rel, {0, 10, /*burst_every=*/2, /*stall=*/1000});
  EXPECT_EQ(src.AvailableAt(0), 0);
  EXPECT_EQ(src.AvailableAt(1), 10);
  EXPECT_EQ(src.AvailableAt(2), 1020);  // stall between bursts
  EXPECT_EQ(src.AvailableAt(3), 1030);
}

// ---------------------------------------------------------------------------
// Join correctness: all algorithms agree with the reference
// ---------------------------------------------------------------------------

std::vector<Tuple> ReferenceJoin(const Relation& l, const Relation& r,
                                 JoinSpec spec) {
  std::vector<Tuple> out;
  for (const Tuple& a : l.rows()) {
    for (const Tuple& b : r.rows()) {
      if (data::CompareValues(a.at(spec.left_col), b.at(spec.right_col)) ==
          0) {
        out.push_back(Tuple::Concat(a, b));
      }
    }
  }
  return out;
}

class JoinAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinAgreementTest, AllAlgorithmsMatchReference) {
  Rng rng(GetParam());
  // Random keyed tables with duplicates and non-matching keys.
  auto make = [&](const std::string& name, size_t n, uint64_t key_range) {
    std::vector<int64_t> keys;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(static_cast<int64_t>(rng.Uniform(key_range)));
    }
    return SmallTable(name, keys);
  };
  Relation l = make("L", 30 + rng.Uniform(50), 20);
  Relation r = make("R", 30 + rng.Uniform(50), 20);
  JoinSpec spec{0, 0};
  auto expected = Canon(ReferenceJoin(l, r, spec));

  {
    NestedLoopJoin j(std::make_unique<MemSource>(&l),
                     std::make_unique<MemSource>(&r), spec);
    EXPECT_EQ(Canon(Drain(&j)), expected) << "nlj";
  }
  {
    HashJoin j(std::make_unique<MemSource>(&l),
               std::make_unique<MemSource>(&r), spec);
    EXPECT_EQ(Canon(Drain(&j)), expected) << "hash";
  }
  {
    SymmetricHashJoin j(std::make_unique<MemSource>(&l),
                        std::make_unique<MemSource>(&r), spec);
    EXPECT_EQ(Canon(Drain(&j)), expected) << "sym-hash";
  }
  for (size_t mem : {4u, 16u, 1000u}) {
    XJoin j(std::make_unique<MemSource>(&l), std::make_unique<MemSource>(&r),
            spec, mem);
    EXPECT_EQ(Canon(Drain(&j)), expected) << "xjoin mem=" << mem;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(JoinTest, AgreementWithDelayedSources) {
  Rng rng(99);
  Relation l = SmallTable("L", {1, 2, 3, 4, 5, 2, 3});
  Relation r = SmallTable("R", {2, 3, 3, 9});
  JoinSpec spec{0, 0};
  auto expected = Canon(ReferenceJoin(l, r, spec));
  DelayedSource::Timing slow{50, 5, 3, 200};
  {
    SymmetricHashJoin j(std::make_unique<DelayedSource>(&l, slow),
                        std::make_unique<DelayedSource>(&r, slow), spec);
    EXPECT_EQ(Canon(Drain(&j)), expected);
  }
  {
    XJoin j(std::make_unique<DelayedSource>(&l, slow),
            std::make_unique<DelayedSource>(&r, slow), spec, 3);
    EXPECT_EQ(Canon(Drain(&j)), expected);
  }
}

// ---------------------------------------------------------------------------
// Adaptive behaviour over time
// ---------------------------------------------------------------------------

TEST(JoinTimingTest, SymmetricHashBeatsBlockingOnDelayedBuild) {
  // Build side trickles in; probe side is immediate. The blocking hash
  // join cannot emit anything until the build completes; the symmetric
  // join emits as soon as matches meet.
  Rng rng(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(i % 50);
  Relation slow_rel = SmallTable("slow", keys);
  Relation fast_rel = SmallTable("fast", keys);
  DelayedSource::Timing slow{1000, 100, 0, 0};  // 1ms start, 100µs gaps

  auto run = [&](auto make_join) {
    auto join = make_join();
    std::vector<Tuple> out;
    auto stats = Execute(join.get(), &out, {});
    EXPECT_TRUE(stats.ok());
    return *stats;
  };

  ExecStats blocking = run([&]() {
    return std::make_unique<HashJoin>(
        std::make_unique<DelayedSource>(&slow_rel, slow),
        std::make_unique<MemSource>(&fast_rel), JoinSpec{0, 0});
  });
  ExecStats pipelined = run([&]() {
    return std::make_unique<SymmetricHashJoin>(
        std::make_unique<DelayedSource>(&slow_rel, slow),
        std::make_unique<MemSource>(&fast_rel), JoinSpec{0, 0});
  });
  EXPECT_EQ(blocking.rows, pipelined.rows);
  EXPECT_LT(pipelined.TimeToFirstRow(), blocking.TimeToFirstRow() / 10);
}

TEST(JoinTimingTest, XJoinUsesStallsProductively) {
  std::vector<int64_t> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(i % 40);
  Relation l = SmallTable("L", keys);
  Relation r = SmallTable("R", keys);
  // Both sides stall periodically for a long time.
  DelayedSource::Timing bursty{0, 1, /*burst_every=*/50, /*stall=*/100000};
  XJoin j(std::make_unique<DelayedSource>(&l, bursty),
          std::make_unique<DelayedSource>(&r, bursty), JoinSpec{0, 0},
          /*memory_tuples=*/32);
  auto rows = Drain(&j);
  EXPECT_EQ(Canon(rows), Canon(ReferenceJoin(l, r, JoinSpec{0, 0})));
  EXPECT_GT(j.spilled(), 0u);
  EXPECT_GT(j.reactive_outputs(), 0u);  // stall time produced output
}

// ---------------------------------------------------------------------------
// Aggregation / sort
// ---------------------------------------------------------------------------

TEST(AggregateTest, GroupByWithAllFunctions) {
  Relation rel("t", Schema({{"g", ValueType::kString},
                            {"v", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({std::string("a"), int64_t{1}}));
  rel.InsertUnchecked(Tuple({std::string("a"), int64_t{3}}));
  rel.InsertUnchecked(Tuple({std::string("b"), int64_t{10}}));
  HashAggregate agg(std::make_unique<MemSource>(&rel), {0},
                    {{AggFunc::kCount, 0, "n"},
                     {AggFunc::kSum, 1, "s"},
                     {AggFunc::kAvg, 1, "avg"},
                     {AggFunc::kMin, 1, "lo"},
                     {AggFunc::kMax, 1, "hi"}});
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 2u);
  // Deterministic order: "a" before "b" (string-keyed map).
  EXPECT_EQ(std::get<std::string>(rows[0].at(0)), "a");
  EXPECT_EQ(std::get<int64_t>(rows[0].at(1)), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(rows[0].at(2)), 4.0);
  EXPECT_DOUBLE_EQ(std::get<double>(rows[0].at(3)), 2.0);
  EXPECT_DOUBLE_EQ(std::get<double>(rows[0].at(4)), 1.0);
  EXPECT_DOUBLE_EQ(std::get<double>(rows[0].at(5)), 3.0);
}

TEST(AggregateTest, RepeatedStringGroupColumnKeepsEveryKeyCopy) {
  // The aggregate consumes its input rows; a column listed twice in the
  // GROUP BY must still land in both key slots.
  Relation rel("t", Schema({{"g", ValueType::kString},
                            {"v", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({std::string("a"), int64_t{1}}));
  rel.InsertUnchecked(Tuple({std::string("a"), int64_t{3}}));
  rel.InsertUnchecked(Tuple({std::string("b"), int64_t{10}}));
  HashAggregate agg(std::make_unique<MemSource>(&rel), {0, 0},
                    {{AggFunc::kCount, 0, "n"}});
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].ToString(), "[a, a, 2]");
  EXPECT_EQ(rows[1].ToString(), "[b, b, 1]");
}

TEST(AggregateTest, GlobalAggregateNoGroups) {
  Relation rel = SmallTable("t", {5, 6, 7});
  HashAggregate agg(std::make_unique<MemSource>(&rel), {},
                    {{AggFunc::kCount, 0, "n"}});
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rows[0].at(0)), 3);
}

TEST(SortTest, SortsAscendingAndDescending) {
  Relation rel = SmallTable("t", {3, 1, 2});
  SortOp asc(std::make_unique<MemSource>(&rel), 0, true);
  auto rows = Drain(&asc);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(rows[0].at(0)), 1);
  SortOp desc(std::make_unique<MemSource>(&rel), 0, false);
  rows = Drain(&desc);
  EXPECT_EQ(std::get<int64_t>(rows[0].at(0)), 3);
}

// ---------------------------------------------------------------------------
// Ripple join (online aggregation)
// ---------------------------------------------------------------------------

double TrueJoinCount(const Relation& l, const Relation& r, JoinSpec spec) {
  return static_cast<double>(ReferenceJoin(l, r, spec).size());
}

TEST(RippleJoinTest, ExactAtExhaustion) {
  Relation l = data::gen::Orders(300, 50, 0.5, 1);
  Relation r = data::gen::People(50, 2);
  JoinSpec spec{1, 0};  // orders.person_id == people.id
  RippleJoin ripple(&l, &r, spec, AggFunc::kCount, 0);
  auto est = ripple.Run(UINT64_MAX);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->exact);
  EXPECT_DOUBLE_EQ(est->estimate, TrueJoinCount(l, r, spec));
  EXPECT_DOUBLE_EQ(est->half_width, 0);
}

TEST(RippleJoinTest, IntervalShrinksWithSamples) {
  Relation l = data::gen::Orders(2000, 100, 0.3, 3);
  Relation r = data::gen::People(100, 4);
  JoinSpec spec{1, 0};
  RippleJoin ripple(&l, &r, spec, AggFunc::kCount, 0);
  auto early = ripple.Run(200);
  ASSERT_TRUE(early.ok());
  double early_hw = early->half_width;
  auto later = ripple.Run(1500);
  ASSERT_TRUE(later.ok());
  EXPECT_LT(later->half_width, early_hw);
}

TEST(RippleJoinTest, EstimateApproachesTruth) {
  Relation l = data::gen::Orders(1500, 80, 0.4, 5);
  Relation r = data::gen::People(80, 6);
  JoinSpec spec{1, 0};
  double truth = TrueJoinCount(l, r, spec);
  RippleJoin ripple(&l, &r, spec, AggFunc::kCount, 0, 11);
  auto mid = ripple.Run(800);
  ASSERT_TRUE(mid.ok());
  // Rough: within 50% once half the input is seen.
  EXPECT_NEAR(mid->estimate, truth, truth * 0.5);
  auto done = ripple.Run(UINT64_MAX);
  ASSERT_TRUE(done.ok());
  EXPECT_DOUBLE_EQ(done->estimate, truth);
}

TEST(RippleJoinTest, SumAgreesWithExactAggregate) {
  Relation l = data::gen::Orders(400, 40, 0.5, 7);
  Relation r = data::gen::People(40, 8);
  JoinSpec spec{1, 0};
  // SUM(orders.amount) over the join.
  double truth = 0;
  for (const Tuple& t : ReferenceJoin(l, r, spec)) {
    truth += std::get<double>(t.at(2));
  }
  RippleJoin ripple(&l, &r, spec, AggFunc::kSum, 2);
  auto est = ripple.Run(UINT64_MAX);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->estimate, truth, 1e-6);
}

// ---------------------------------------------------------------------------
// Eddy
// ---------------------------------------------------------------------------

std::vector<EddyPredicate> AgePreds(bool expensive_first) {
  // p1: cheap & very selective (age < 20 drops ~95%); p2: costly, passes
  // nearly everything.
  EddyPredicate selective{"age<20", Lt(Col(2), Lit(int64_t{20})), 1.0};
  EddyPredicate loose{"age<=90", Le(Col(2), Lit(int64_t{90})), 10.0};
  if (expensive_first) return {loose, selective};
  return {selective, loose};
}

TEST(EddyTest, SameResultAsStaticEvaluation) {
  Relation people = data::gen::People(2000, 12);
  Eddy eddy(std::make_unique<MemSource>(&people), AgePreds(true));
  auto eddy_rows = Drain(&eddy);
  MemSource src(&people);
  std::vector<Tuple> static_rows;
  ASSERT_TRUE(Eddy::RunStatic(&src, AgePreds(false), &static_rows).ok());
  EXPECT_EQ(Canon(eddy_rows), Canon(static_rows));
}

TEST(EddyTest, RoutingConvergesToCheapSelectiveFirst) {
  Relation people = data::gen::People(5000, 13);
  Eddy eddy(std::make_unique<MemSource>(&people), AgePreds(true));
  (void)Drain(&eddy);
  const EddyStats& es = eddy.eddy_stats();
  // The expensive loose predicate (index 0) should be evaluated far less
  // often than once per tuple: the selective one kills most tuples first.
  EXPECT_LT(es.evaluations[0], 5000u * 6 / 10);
  // Cost beats the worst static order (expensive first = 10 * 5000).
  MemSource src(&people);
  auto worst = Eddy::RunStatic(&src, AgePreds(true), nullptr);
  ASSERT_TRUE(worst.ok());
  EXPECT_LT(es.total_cost, *worst);
}

TEST(EddyTest, AdaptsToMidStreamShift) {
  // First half: filter A selective, B loose. Second half: reversed.
  Relation rel("t", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  for (int i = 0; i < 4000; ++i) {
    bool first_half = i < 2000;
    rel.InsertUnchecked(Tuple({int64_t{first_half ? 100 : 1},
                               int64_t{first_half ? 1 : 100}}));
  }
  std::vector<EddyPredicate> preds{
      {"a<10", Lt(Col(0), Lit(int64_t{10})), 1.0},
      {"b<10", Lt(Col(1), Lit(int64_t{10})), 1.0},
  };
  Eddy eddy(std::make_unique<MemSource>(&rel), preds, 7, /*decay=*/128);
  auto rows = Drain(&eddy);
  EXPECT_TRUE(rows.empty());  // every tuple fails one predicate
  const EddyStats& es = eddy.eddy_stats();
  // Adaptive routing keeps total evaluations well below the 2-per-tuple
  // worst case (8000): it learns to try the currently-selective one first.
  EXPECT_LT(es.evaluations[0] + es.evaluations[1], 7200u);
}

// ---------------------------------------------------------------------------
// Optimiser + adaptive executor (scenario 3)
// ---------------------------------------------------------------------------

struct JoinRig {
  Relation orders = data::gen::Orders(3000, 200, 0.4, 21);
  Relation people = data::gen::People(200, 22);
  data::RelationStats orders_stats = orders.ComputeStatistics();
  data::RelationStats people_stats = people.ComputeStatistics();

  JoinQuery Query() {
    JoinQuery q;
    q.left = TableInput{&orders, &orders_stats};
    q.right = TableInput{&people, &people_stats};
    q.spec = JoinSpec{1, 0};
    q.left_join_column = "person_id";
    q.right_join_column = "id";
    return q;
  }
};

TEST(OptimizerTest, BuildsOnSmallerSide) {
  JoinRig rig;
  Optimizer opt;
  auto plan = opt.Plan(rig.Query());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, JoinAlgorithm::kHashBuildRight);  // people small
  EXPECT_NEAR(plan->estimated_output, 3000, 600);
}

TEST(OptimizerTest, WrongStatsFlipTheChoice) {
  JoinRig rig;
  // The optimiser believes orders is tiny and people is huge.
  rig.orders_stats.PerturbCardinality(0.05);   // thinks 150 rows
  rig.people_stats.PerturbCardinality(100.0);  // thinks 20000 rows
  Optimizer opt;
  auto plan = opt.Plan(rig.Query());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, JoinAlgorithm::kHashBuildLeft);  // wrong!
}

TEST(OptimizerTest, TinyInputsUseNestedLoop) {
  Relation l = SmallTable("l", {1, 2});
  Relation r = SmallTable("r", {2, 3});
  auto ls = l.ComputeStatistics();
  auto rs = r.ComputeStatistics();
  JoinQuery q;
  q.left = TableInput{&l, &ls};
  q.right = TableInput{&r, &rs};
  q.spec = JoinSpec{0, 0};
  q.left_join_column = q.right_join_column = "k";
  Optimizer opt;
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, JoinAlgorithm::kNestedLoop);
}

TEST(ExecutorTest, SafePointsFire) {
  Relation people = data::gen::People(1000, 31);
  MemSource src(&people);
  int safe_points = 0;
  ExecOptions options;
  options.safe_point_every = 100;
  options.on_safe_point = [&](const ExecStats&) {
    ++safe_points;
    return true;
  };
  std::vector<Tuple> out;
  auto stats = Execute(&src, &out, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_GE(safe_points, 9);
}

TEST(ExecutorTest, SafePointCanAbort) {
  Relation people = data::gen::People(1000, 31);
  MemSource src(&people);
  ExecOptions options;
  options.safe_point_every = 100;
  options.on_safe_point = [](const ExecStats& s) { return s.rows < 300; };
  std::vector<Tuple> out;
  auto stats = Execute(&src, &out, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(out.size(), 500u);
}

TEST(AdaptiveJoinTest, ReoptimizationCorrectsWrongBuildSide) {
  JoinRig rig;
  // Stale statistics: the optimiser believes orders has 150 rows (it has
  // 3000), so it builds the hash table on orders instead of people.
  rig.orders_stats.PerturbCardinality(0.05);
  adapt::StateManager state;
  AdaptiveJoinExecutor exec{Optimizer(), &state};

  AdaptiveJoinExecutor::Options adaptive;
  adaptive.allow_reoptimization = true;
  std::vector<Tuple> adaptive_out;
  auto a = exec.Run(rig.Query(), &adaptive_out, adaptive);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->reoptimizations, 1u);
  EXPECT_EQ(a->final_plan, "hash(build=right)");
  // The State Manager holds the consistent-point checkpoint.
  EXPECT_TRUE(state.Load("adaptive-join").ok());

  AdaptiveJoinExecutor::Options fixed = adaptive;
  fixed.allow_reoptimization = false;
  std::vector<Tuple> static_out;
  auto s = exec.Run(rig.Query(), &static_out, fixed);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->reoptimizations, 0u);

  // Same answer either way.
  EXPECT_EQ(adaptive_out.size(), static_out.size());
  EXPECT_EQ(a->rows, s->rows);
}

TEST(AdaptiveJoinTest, AccurateStatsNeverTrigger) {
  JoinRig rig;
  adapt::StateManager state;
  AdaptiveJoinExecutor exec{Optimizer(), &state};
  std::vector<Tuple> out;
  auto stats = exec.Run(rig.Query(), &out);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reoptimizations, 0u);
  EXPECT_EQ(stats->wasted_time, 0);
}

}  // namespace
}  // namespace dbm::query
