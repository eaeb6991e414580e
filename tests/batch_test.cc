// Tests for the vectorized columnar batch layer (query/batch.h): cell
// primitives vs their Value counterparts, kernel-vs-row-operator
// equivalence across seeds and selectivities, selection-vector edge
// cases, arena reuse, and whole plans held to the serial executor at
// dop 1/2/4/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "data/value.h"
#include "query/batch.h"
#include "query/parallel.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

#include "serial_reference.h"

namespace dbm::query {
namespace {

using data::CompareValues;
using data::HashValue;
using data::Relation;
using data::Schema;
using data::Value;
using data::ValueType;

constexpr uint64_t kSeeds[] = {17, 23, 42};

/// Mixed-type relation with nulls sprinkled in: the value-space the cell
/// primitives must mirror exactly. Doubles are multiples of 0.25 so
/// parallel sum reassociation is exact.
Relation MakeMixed(size_t rows, uint64_t seed) {
  Relation rel("mixed", Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kDouble},
                                {"c", ValueType::kString},
                                {"d", ValueType::kInt}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Tuple t;
    t.values.push_back(static_cast<int64_t>(rng.Uniform(100)));
    if (rng.Uniform(10) == 0) {
      t.values.emplace_back();  // null in a double column
    } else {
      t.values.emplace_back(0.25 * static_cast<double>(rng.Uniform(400)));
    }
    t.values.emplace_back("s#" + std::to_string(rng.Uniform(13)));
    if (rng.Uniform(8) == 0) {
      t.values.emplace_back();  // null join/group key
    } else {
      t.values.emplace_back(static_cast<int64_t>(rng.Uniform(10)));
    }
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

/// Loads a whole relation as one batch with an identity view.
struct BatchFixture {
  Arena arena;
  ColumnBatch batch;
  BatchView view;

  explicit BatchFixture(const Relation& rel) {
    LoadMemBatch(rel.Columnar(), 0, rel.rows().size(), &arena, &batch);
    view.batch = &batch;
    view.arity = batch.ncols;
  }
};

// ---------------------------------------------------------------------------
// Cell primitives mirror their Value counterparts
// ---------------------------------------------------------------------------

TEST(CellTest, RoundTripAndCompareAndHashMatchValueSemantics) {
  std::vector<Value> values = {Value{},
                               Value{int64_t{0}},
                               Value{int64_t{-7}},
                               Value{int64_t{3}},
                               Value{3.0},
                               Value{-0.0},
                               Value{0.0},
                               Value{2.5},
                               Value{std::string("")},
                               Value{std::string("abc")},
                               Value{std::string("abd")}};
  for (const Value& a : values) {
    Cell ca = CellFromValue(a);
    EXPECT_EQ(CompareValues(CellToValue(ca), a), 0) << Tuple({a}).ToString();
    EXPECT_EQ(HashCell(ca), HashValue(a)) << Tuple({a}).ToString();
    for (const Value& b : values) {
      Cell cb = CellFromValue(b);
      EXPECT_EQ(CompareCells(ca, cb), CompareValues(a, b))
          << Tuple({a, b}).ToString();
    }
  }
  // int 3 and double 3.0 hash alike (they compare equal).
  EXPECT_EQ(HashCell(CellFromValue(Value{int64_t{3}})),
            HashCell(CellFromValue(Value{3.0})));
}

TEST(CellTest, TruthinessMatchesExprTest) {
  std::vector<Value> values = {Value{}, Value{int64_t{0}}, Value{int64_t{2}},
                               Value{0.0}, Value{1.5}, Value{std::string("")},
                               Value{std::string("x")}};
  for (const Value& v : values) {
    Tuple t({v});
    auto row = Col(0)->Test(t);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(CellTruthy(CellFromValue(v)), *row) << t.ToString();
  }
}

// ---------------------------------------------------------------------------
// EvalBatch / TestBatch / FilterBatch vs row-at-a-time Expr
// ---------------------------------------------------------------------------

void ExpectEvalMatchesRows(const Relation& rel, const ExprPtr& e) {
  BatchFixture fx(rel);
  size_t n = fx.batch.rows;
  std::vector<Cell> out(n);
  Status st = EvalBatch(*e, fx.view, nullptr, n, out.data(), &fx.arena);
  // Row reference.
  for (size_t i = 0; i < n; ++i) {
    auto row = e->Eval(rel.rows()[i]);
    if (!row.ok()) {
      // Some row errors: the batch call must error with the same message
      // (though possibly for a different row of the batch).
      EXPECT_FALSE(st.ok()) << e->ToString();
      return;
    }
    ASSERT_TRUE(st.ok()) << e->ToString() << ": " << st.ToString();
    EXPECT_EQ(CompareValues(CellToValue(out[i]), *row), 0)
        << e->ToString() << " row " << i;
  }
}

TEST(BatchKernelTest, EvalMatchesRowEvalAcrossSeeds) {
  std::vector<ExprPtr> exprs = {
      Col(0),
      Lit(Value{int64_t{5}}),
      Arith(ArithOp::kAdd, Col(0), Col(3)),        // null propagation
      Arith(ArithOp::kMul, Col(1), Lit(Value{2.0})),
      Arith(ArithOp::kSub, Col(0), Lit(Value{int64_t{50}})),
      Compare(CmpOp::kLt, Col(0), Lit(Value{int64_t{50}})),
      Compare(CmpOp::kEq, Col(2), Lit(Value{std::string("s#3")})),
      And(Gt(Col(0), Lit(Value{int64_t{10}})),
          Lt(Col(1), Lit(Value{50.0}))),
      Or(Eq(Col(3), Lit(Value{int64_t{4}})), Lt(Col(0), Lit(Value{int64_t{3}}))),
      Not(Gt(Col(0), Lit(Value{int64_t{50}}))),
  };
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(512, seed);
    for (const ExprPtr& e : exprs) ExpectEvalMatchesRows(rel, e);
  }
}

TEST(BatchKernelTest, ErrorStringsMatchRowEngine) {
  Relation rel("r", Schema({{"x", ValueType::kInt}, {"s", ValueType::kString}}));
  rel.InsertUnchecked(Tuple({int64_t{1}, "a"}));
  rel.InsertUnchecked(Tuple({int64_t{0}, "b"}));
  BatchFixture fx(rel);
  std::vector<Cell> out(fx.batch.rows);

  ExprPtr div = Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0));
  Status st = EvalBatch(*div, fx.view, nullptr, fx.batch.rows, out.data(),
                        &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "division by zero");

  ExprPtr arith_str = Arith(ArithOp::kAdd, Col(1), Lit(Value{int64_t{1}}));
  st = EvalBatch(*arith_str, fx.view, nullptr, fx.batch.rows, out.data(),
                 &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "arithmetic on string value");

  ExprPtr oob = Col(7);
  st = EvalBatch(*oob, fx.view, nullptr, fx.batch.rows, out.data(),
                 &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "column 7 beyond tuple arity 2");
}

TEST(BatchKernelTest, AndShortCircuitSkipsErroringRightSide) {
  // Expr::Test: And() only Tests the right child when the left side
  // passed, so 10/x on rows with x == 0 never runs. The batch kernel
  // must preserve exactly that.
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({int64_t{0}}));
  rel.InsertUnchecked(Tuple({int64_t{2}}));
  rel.InsertUnchecked(Tuple({int64_t{0}}));
  rel.InsertUnchecked(Tuple({int64_t{5}}));
  ExprPtr guarded =
      And(Ne(Col(0), Lit(Value{int64_t{0}})),
          Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
             Lit(Value{int64_t{1}})));

  BatchFixture fx(rel);
  size_t n = fx.batch.rows;
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  Status st = FilterBatch(*guarded, fx.view, sel.data(), n, &n, &fx.arena);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(n, 2u);  // x=2 (10/2=5>1) and x=5 (10/5=2>1)
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 3u);

  // Or short-circuit: right side only runs where the left was false.
  ExprPtr or_guarded =
      Or(Eq(Col(0), Lit(Value{int64_t{0}})),
         Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
            Lit(Value{int64_t{1}})));
  n = fx.batch.rows;
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  st = FilterBatch(*or_guarded, fx.view, sel.data(), n, &n, &fx.arena);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(n, 4u);  // zeros pass via left, non-zeros via right
}

TEST(BatchKernelTest, FilterSelectivityZeroHalfOne) {
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(777, seed);
    struct Case {
      ExprPtr pred;
    } cases[] = {
        {Gt(Col(0), Lit(Value{int64_t{1000}}))},  // selectivity 0
        {Lt(Col(0), Lit(Value{int64_t{50}}))},    // ~0.5
        {Ge(Col(0), Lit(Value{int64_t{0}}))},     // 1
        // The literal on the left, a double column against an int
        // literal, a string column, and a null literal (passes nothing).
        {Gt(Lit(Value{int64_t{50}}), Col(0))},
        {Le(Col(1), Lit(Value{int64_t{50}}))},
        {Ge(Lit(Value{50.0}), Col(1))},
        {Lt(Col(2), Lit(Value{std::string("s#5")}))},
        {Ne(Lit(Value{std::string("s#3")}), Col(2))},
        {Eq(Col(3), Lit(Value{}))},
    };
    for (const Case& c : cases) {
      BatchFixture fx(rel);
      size_t n = fx.batch.rows;
      std::vector<uint32_t> sel(n);
      for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      Status st =
          FilterBatch(*c.pred, fx.view, sel.data(), n, &n, &fx.arena);
      ASSERT_TRUE(st.ok()) << st.ToString();
      // Row reference.
      std::vector<uint32_t> expect;
      for (size_t i = 0; i < rel.rows().size(); ++i) {
        auto pass = c.pred->Test(rel.rows()[i]);
        ASSERT_TRUE(pass.ok());
        if (*pass) expect.push_back(static_cast<uint32_t>(i));
      }
      ASSERT_EQ(n, expect.size()) << c.pred->ToString();
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sel[i], expect[i]) << c.pred->ToString();
      }
    }
  }
}

TEST(BatchKernelTest, SelectionVectorEdgeCases) {
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 5; ++i) rel.InsertUnchecked(Tuple({i}));
  BatchFixture fx(rel);

  // Empty selection in, empty out.
  size_t n = 0;
  uint32_t* sel = fx.arena.AllocateArray<uint32_t>(1);
  ExprPtr pred = Ge(Col(0), Lit(Value{int64_t{0}}));
  ASSERT_TRUE(FilterBatch(*pred, fx.view, sel, 0, &n, &fx.arena).ok());
  EXPECT_EQ(n, 0u);

  // Full batch passes: sel is the identity.
  std::vector<uint32_t> all(fx.batch.rows);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  n = all.size();
  ASSERT_TRUE(
      FilterBatch(*pred, fx.view, all.data(), n, &n, &fx.arena).ok());
  EXPECT_EQ(n, 5u);

  // Only the last row matches.
  ExprPtr last = Eq(Col(0), Lit(Value{int64_t{4}}));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  n = all.size();
  ASSERT_TRUE(
      FilterBatch(*last, fx.view, all.data(), n, &n, &fx.arena).ok());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(all[0], 4u);

  // Empty batch: a zero-row relation loads and filters cleanly.
  Relation empty("e", Schema({{"x", ValueType::kInt}}));
  BatchFixture efx(empty);
  EXPECT_EQ(efx.batch.rows, 0u);
  size_t en = 0;
  uint32_t* esel = efx.arena.AllocateArray<uint32_t>(1);
  ASSERT_TRUE(FilterBatch(*pred, efx.view, esel, 0, &en, &efx.arena).ok());
  EXPECT_EQ(en, 0u);
}

TEST(BatchKernelTest, HashColumnMatchesHashValue) {
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(256, seed);
    BatchFixture fx(rel);
    size_t n = fx.batch.rows;
    std::vector<uint64_t> hashes(n);
    for (size_t col = 0; col < fx.batch.ncols; ++col) {
      HashColumn(fx.view, col, nullptr, n, hashes.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hashes[i], HashValue(rel.rows()[i].at(col)))
            << "col " << col << " row " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A scan column compared with a literal, read in place
// ---------------------------------------------------------------------------

const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Columns holding every value a comparison can trip on: nulls, NaN, both
/// zeros, ints equal to a double, empty strings. Column m mixes every
/// type, so strings meet numbers from the column side too.
Relation MakeCompareEdges() {
  Relation rel("edges", Schema({{"i", ValueType::kInt},
                                {"d", ValueType::kDouble},
                                {"s", ValueType::kString},
                                {"m", ValueType::kInt}}));
  const std::vector<Value> ints = {Value{}, Value{int64_t{3}},
                                   Value{int64_t{0}}, Value{int64_t{-7}}};
  const std::vector<Value> doubles = {Value{},    Value{kNaN}, Value{-0.0},
                                      Value{0.0}, Value{3.0},  Value{2.5}};
  const std::vector<Value> strings = {Value{}, Value{std::string()},
                                      Value{std::string("abc")},
                                      Value{std::string("abd")},
                                      Value{std::string("3")}};
  const std::vector<Value> mixed = {Value{},        Value{int64_t{3}},
                                    Value{3.0},     Value{kNaN},
                                    Value{-0.0},    Value{std::string()},
                                    Value{std::string("abc")}};
  for (size_t r = 0; r < 420; ++r) {
    rel.InsertUnchecked(Tuple({ints[r % ints.size()],
                               doubles[r % doubles.size()],
                               strings[r % strings.size()],
                               mixed[r % mixed.size()]}));
  }
  return rel;
}

/// Literals of every type, including the edges MakeCompareEdges holds.
std::vector<Value> CompareLiterals() {
  return {Value{},
          Value{int64_t{3}},
          Value{int64_t{0}},
          Value{3.0},
          Value{-0.0},
          Value{0.0},
          Value{kNaN},
          Value{2.5},
          Value{std::string()},
          Value{std::string("abc")},
          Value{std::string("abd")}};
}

constexpr CmpOp kCmpOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

/// Runs TestBatch for `e` over every position of `v` and over every other
/// one, and checks each verdict is 0 or 1 and agrees with Expr::Test on
/// the position's tuple.
void ExpectTestMatchesRows(const Expr& e, const BatchView& v,
                           const std::vector<Tuple>& tuples, Arena* arena) {
  const size_t n = tuples.size();
  std::vector<uint32_t> odd;
  for (uint32_t p = 1; p < n; p += 2) odd.push_back(p);
  for (const uint32_t* sel : {static_cast<const uint32_t*>(nullptr),
                              static_cast<const uint32_t*>(odd.data())}) {
    const size_t m = sel == nullptr ? n : odd.size();
    std::vector<uint8_t> out(m, 7);
    ASSERT_TRUE(TestBatch(e, v, sel, m, out.data(), arena).ok());
    for (size_t i = 0; i < m; ++i) {
      const size_t pos = sel == nullptr ? i : sel[i];
      auto row = e.Test(tuples[pos]);
      ASSERT_TRUE(row.ok());
      ASSERT_LE(out[i], 1) << e.ToString();
      EXPECT_EQ(out[i] == 1, *row)
          << e.ToString() << " on " << tuples[pos].ToString();
    }
  }
}

TEST(BatchKernelTest, ScanColumnVersusLiteralMatchesRowTest) {
  const Relation rel = MakeCompareEdges();
  BatchFixture fx(rel);
  for (size_t col = 0; col < rel.schema().size(); ++col) {
    for (const Value& lit : CompareLiterals()) {
      for (CmpOp op : kCmpOps) {
        ExpectTestMatchesRows(*Compare(op, Col(col), Lit(lit)), fx.view,
                              rel.rows(), &fx.arena);
        ExpectTestMatchesRows(*Compare(op, Lit(lit), Col(col)), fx.view,
                              rel.rows(), &fx.arena);
      }
    }
  }
}

TEST(BatchKernelTest, ScanColumnComparisonReadsThroughJoinPositions) {
  // The view after one join stage: column 0 is the build row's cell (a
  // segment), columns 1.. are scan columns read through pos_to_row. The
  // positions fan out as a join does: scan row r appears r % 3 times, in
  // descending order.
  const Relation rel = MakeCompareEdges();
  BatchFixture fx(rel);
  const Cell build = CellFromValue(Value{int64_t{3}});
  std::vector<uint32_t> pos_to_row;
  std::vector<Tuple> joined;
  for (size_t r = rel.rows().size(); r-- > 0;) {
    for (size_t k = 0; k < r % 3; ++k) {
      pos_to_row.push_back(static_cast<uint32_t>(r));
      Tuple t({Value{int64_t{3}}});
      for (const Value& v : rel.rows()[r].values) t.values.push_back(v);
      joined.push_back(std::move(t));
    }
  }
  std::vector<const Cell*> seg(pos_to_row.size(), &build);
  const Cell* const* segs[] = {seg.data()};
  std::vector<ColRef> colmap = {{ColSrc::kSeg, 0, 0}};
  for (uint32_t c = 0; c < rel.schema().size(); ++c) {
    colmap.push_back({ColSrc::kScan, 0, c});
  }
  BatchView view;
  view.batch = &fx.batch;
  view.pos_to_row = pos_to_row.data();
  view.colmap = colmap.data();
  view.arity = colmap.size();
  view.segs = segs;
  for (size_t col = 0; col < view.arity; ++col) {
    for (const Value& lit : CompareLiterals()) {
      for (CmpOp op : kCmpOps) {
        ExpectTestMatchesRows(*Compare(op, Col(col), Lit(lit)), view, joined,
                              &fx.arena);
        ExpectTestMatchesRows(*Compare(op, Lit(lit), Col(col)), view, joined,
                              &fx.arena);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Join tables
// ---------------------------------------------------------------------------

TEST(BatchJoinTableTest, BucketsSpreadEachPartitionsKeys) {
  // 2,000 distinct int keys, as perfbench's people ids. Every key of a
  // partition shares the hash's low bits, so a table that took its bucket
  // from those bits again would use 1/16 of its buckets at most.
  Relation keys("people", Schema({{"id", ValueType::kInt}}));
  for (int64_t k = 0; k < 2000; ++k) keys.InsertUnchecked(Tuple({k}));
  Arena scratch, state;
  ColumnBatch batch;
  LoadMemBatch(keys.Columnar(), 0, keys.size(), &scratch, &batch);
  BuildCollector collector;
  collector.Init(1, 0, &state);
  collector.AddBatch(batch, nullptr, batch.rows);

  BatchStagePart parts[kBatchPartitions];
  size_t rows = 0, buckets = 0, used = 0, links = 0;
  for (size_t p = 0; p < kBatchPartitions; ++p) {
    MergePartition(&collector, 1, p, &state, &parts[p]);
    rows += parts[p].rows;
    if (parts[p].rows == 0) continue;
    buckets += parts[p].mask + 1;
    for (size_t b = 0; b <= parts[p].mask; ++b) {
      size_t len = 0;
      for (uint32_t r = parts[p].heads[b]; r != 0; r = parts[p].next[r - 1]) {
        ++len;
      }
      used += len > 0;
      links += len * len;  // a probe of each of the chain's keys walks it all
    }
  }
  ASSERT_EQ(rows, keys.size());
  EXPECT_GT(used * 16, buckets) << used << " of " << buckets << " buckets";
  EXPECT_LT(static_cast<double>(links) / static_cast<double>(rows), 2.0)
      << links << " links for " << rows << " probes";

  // The probe finds every key in the bucket the build put it in.
  for (const Tuple& t : keys.rows()) {
    const uint64_t h = HashValue(t.at(0));
    const BatchStagePart& part = parts[PartitionOf(h)];
    size_t found = 0;
    for (uint32_t r = part.heads[BucketOf(h, part.mask)]; r != 0;
         r = part.next[r - 1]) {
      found += CompareValues(CellToValue(part.cells[r - 1]), t.at(0)) == 0;
    }
    EXPECT_EQ(found, 1u) << t.ToString();
  }
}

// ---------------------------------------------------------------------------
// Arena reuse
// ---------------------------------------------------------------------------

TEST(ArenaTest, ResetRetainsChunksAndReusesMemory) {
  Arena arena(4096);
  void* first = arena.Allocate(1000);
  arena.AllocateArray<uint64_t>(100);
  size_t chunks = arena.chunk_count();
  EXPECT_GE(chunks, 1u);
  arena.Reset();
  // Same request pattern after Reset lands in the same retained chunk.
  void* again = arena.Allocate(1000);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.resets(), 1u);
}

TEST(ArenaTest, ArenaVecGrowsAndSurvivesClear) {
  Arena arena;
  ArenaVec<uint32_t> v;
  v.Init(&arena);
  for (uint32_t i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  v.Clear();
  EXPECT_TRUE(v.empty());
  v.PushBack(7);
  EXPECT_EQ(v[0], 7u);
}

// ---------------------------------------------------------------------------
// Whole plans: batch engine == serial executor at dop 1/2/4/8
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, FilterProjectEquivalence) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(3000, seed);
    ParallelPlan plan;
    plan.probe.mem = &rel;
    plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
    plan.project = {Col(0), Arith(ArithOp::kAdd, Col(0), Col(3)), Col(2)};
    plan.project_schema = Schema({{"a", ValueType::kInt},
                                  {"ad", ValueType::kInt},
                                  {"c", ValueType::kString}});
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(BatchEngineTest, JoinWithDuplicateKeysEquivalence) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation probe = MakeMixed(2000, seed);
    // Build side keyed on d (0..9 plus nulls): every key matches many
    // probe rows, and some build keys repeat.
    Relation build("dims", Schema({{"k", ValueType::kInt},
                                   {"label", ValueType::kString}}));
    Rng rng(seed + 1);
    for (int64_t k = 0; k < 10; ++k) {
      build.InsertUnchecked(Tuple({k, "dim#" + std::to_string(k)}));
      if (k % 3 == 0) {  // duplicate build keys fan out
        build.InsertUnchecked(Tuple({k, "dup#" + std::to_string(k)}));
      }
    }
    // A null build key: null==null matches per CompareValues.
    build.InsertUnchecked(Tuple({Value{}, std::string("null-dim")}));

    ParallelPlan plan;
    plan.probe.mem = &probe;
    ParallelJoinStage stage;
    stage.build.mem = &build;
    stage.spec = JoinSpec{0, 3};  // dims.k = probe.d
    plan.joins.push_back(std::move(stage));
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(BatchEngineTest, JoinWithEmptyBuildSideProducesNothing) {
  ScopedFaultSpec quiet("");
  Relation probe = MakeMixed(500, 17);
  Relation build("dims", Schema({{"k", ValueType::kInt}}));
  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage stage;
  stage.build.mem = &build;
  stage.spec = JoinSpec{0, 3};
  plan.joins.push_back(std::move(stage));
  ExpectMatchesSerialAtEveryDop(plan, /*expect_nonempty=*/false);
}

TEST(BatchEngineTest, TwoStageJoinWithPostFilterEquivalence) {
  ScopedFaultSpec quiet("");
  Relation probe = MakeMixed(1500, 23);
  Relation d1("d1", Schema({{"k", ValueType::kInt}, {"g", ValueType::kInt}}));
  for (int64_t k = 0; k < 10; ++k) d1.InsertUnchecked(Tuple({k, k % 3}));
  Relation d2("d2", Schema({{"g", ValueType::kInt},
                            {"name", ValueType::kString}}));
  for (int64_t g = 0; g < 3; ++g) {
    d2.InsertUnchecked(Tuple({g, "g#" + std::to_string(g)}));
  }
  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage s1;
  s1.build.mem = &d1;
  s1.spec = JoinSpec{0, 3};  // d1.k = probe.d
  plan.joins.push_back(std::move(s1));
  // Pipeline now d1(k,g) ++ probe(a,b,c,d); join d2 on d1.g (column 1).
  ParallelJoinStage s2;
  s2.build.mem = &d2;
  s2.spec = JoinSpec{0, 1};
  plan.joins.push_back(std::move(s2));
  // Pipeline: d2(g,name) ++ d1(k,g) ++ probe(a,b,c,d). Each filter
  // compares probe scan columns with literals, read through pos_to_row.
  for (ExprPtr filter :
       {Gt(Col(4), Lit(Value{int64_t{20}})),  // probe.a > 20
        Le(Lit(Value{int64_t{20}}), Col(4)),
        And(Ge(Col(5), Lit(Value{25.0})),
            Ne(Lit(Value{std::string("s#3")}), Col(6))),
        Or(Eq(Col(7), Lit(Value{})), Lt(Col(5), Lit(Value{int64_t{10}})))}) {
    SCOPED_TRACE(filter->ToString());
    plan.post_filter = filter;
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(BatchEngineTest, AggregationOneGroupAndAllDistinct) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(2500, seed);
    // One group: no GROUP BY columns, global aggregates.
    {
      ParallelPlan plan;
      plan.probe.mem = &rel;
      plan.aggs = {{AggFunc::kCount, 0, "n"},
                   {AggFunc::kSum, 1, "sum_b"},
                   {AggFunc::kMin, 0, "min_a"},
                   {AggFunc::kMax, 1, "max_b"},
                   {AggFunc::kAvg, 1, "avg_b"}};
      ExpectMatchesSerialAtEveryDop(plan);
    }
    // All-distinct: group by a near-unique expression source column so
    // almost every row is its own group.
    {
      ParallelPlan plan;
      plan.probe.mem = &rel;
      plan.project = {Col(0), Col(3), Col(1)};
      plan.project_schema = Schema({{"a", ValueType::kInt},
                                    {"d", ValueType::kInt},
                                    {"b", ValueType::kDouble}});
      plan.group_by = {0, 1};  // (a, d): many distinct pairs, null keys too
      plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 2, "s"}};
      ExpectMatchesSerialAtEveryDop(plan);
    }
  }
}

TEST(BatchEngineTest, GroupByStringKeysEquivalence) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(2000, 42);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.probe.filter = Gt(Col(0), Lit(Value{int64_t{5}}));
  plan.group_by = {2};  // string column
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  ExpectMatchesSerialAtEveryDop(plan);
}

TEST(BatchEngineTest, PagedProbeEquivalence) {
  ScopedFaultSpec quiet("");
  // Mixed rows with empty strings and nulls in the string column too, so
  // the paged decoder meets every tag and zero-length payloads.
  Relation mixed = MakeMixed(4000, 23);
  Relation rel("mixed", mixed.schema());
  for (size_t i = 0; i < mixed.rows().size(); ++i) {
    Tuple t = mixed.rows()[i];
    if (i % 11 == 0) t.values[2] = Value{std::string()};
    if (i % 17 == 0) t.values[2] = Value{};
    rel.InsertUnchecked(std::move(t));
  }

  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  auto buffer = std::make_shared<storage::BufferManager>("buf", 32,
                                                         /*shards=*/4);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(policy);
  auto paged = storage::PagedRelation::Load(rel, buffer.get(), disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto page_rows = [&](size_t page) {
    auto n = (*paged)->DecodePage(page,
                                  [](size_t, const data::FieldView&) {});
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ok() ? *n : 0;
  };
  ASSERT_LT(page_rows((*paged)->pages() - 1), page_rows(0))
      << "the last page should be only partly filled";

  for (size_t group_col : {3u, 2u}) {
    ParallelPlan mem_plan;
    mem_plan.probe.mem = &rel;
    mem_plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{60}}));
    mem_plan.group_by = {group_col};
    mem_plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
    std::multiset<std::string> reference = Canon(SerialRows(mem_plan));

    ParallelPlan paged_plan = mem_plan;
    paged_plan.probe.mem = nullptr;
    paged_plan.probe.paged = paged->get();
    for (size_t morsel_pages : {1u, 2u, 3u}) {
      SCOPED_TRACE("group_col=" + std::to_string(group_col) +
                   " morsel_pages=" + std::to_string(morsel_pages));
      ParallelOptions opt;
      opt.morsel_pages = morsel_pages;
      ExpectMatchesAtEveryDop(paged_plan, reference, opt);
    }
  }
  EXPECT_TRUE(buffer->CheckInvariants().ok());
}

TEST(BatchEngineTest, WideGroupByRunsOnBatches) {
  // GROUP BY arity has no fixed bound: the aggregation table sizes its
  // probe-key buffer to the plan, so 17 and 20 keys stay on batches.
  ScopedFaultSpec quiet("");
  Relation rel("wide", Schema({{"a", ValueType::kInt},
                               {"b", ValueType::kInt},
                               {"c", ValueType::kString},
                               {"v", ValueType::kInt}}));
  for (int64_t i = 0; i < 3000; ++i) {
    rel.InsertUnchecked(
        Tuple({i % 5, i % 7, "s#" + std::to_string(i % 3), i}));
  }
  for (size_t keys : {17u, 20u}) {
    ParallelPlan plan;
    plan.probe.mem = &rel;
    for (size_t k = 0; k < keys; ++k) plan.group_by.push_back(k % 3);
    plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 3, "s"}};
    ExpectMatchesSerialAtEveryDop(plan);
  }
}

TEST(BatchEngineTest, ErrorsPropagateFromBatchKernels) {
  ScopedFaultSpec quiet("");
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 100; ++i) rel.InsertUnchecked(Tuple({i % 7}));
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.project = {Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0))};
  plan.project_schema = Schema({{"q", ValueType::kInt}});
  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().message(), "division by zero");
}

// ---------------------------------------------------------------------------
// Batch stats & profile annotations
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, StatsCountBatchesAndProfileCarriesSelectivity) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(5000, 17);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
  plan.group_by = {3};
  plan.aggs = {{AggFunc::kCount, 0, "n"}};

  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  QueryProfile profile;
  opt.profile = &profile;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // 5000 rows at 1024/morsel = 5 probe batches.
  EXPECT_EQ(stats->batches, 5u);

  // The filter node carries observed selectivity; the scan node carries
  // the batch count.
  const ProfileNode* agg = &profile.root;
  ASSERT_EQ(agg->name, "aggregate");
  const ProfileNode* filter = &agg->children[0];
  ASSERT_EQ(filter->name.substr(0, 6), "filter");
  EXPECT_GT(filter->selectivity, 0.0);
  EXPECT_LT(filter->selectivity, 1.0);
  const ProfileNode* scan = &filter->children[0];
  EXPECT_EQ(scan->batches, 5u);
  EXPECT_TRUE(profile.ToText().find("selectivity=") != std::string::npos);
  EXPECT_TRUE(profile.ToJson().find("\"batches\":") != std::string::npos);
}

}  // namespace
}  // namespace dbm::query
