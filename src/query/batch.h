// Columnar batch execution: the vectorized kernels of the parallel engine.
//
// The paper's claim is that a database machine on commodity parts wins by
// running "as fast as the hardware allows"; TabulaROSA frames tabular
// operators as the massively-parallel primitive. Row-at-a-time Volcano
// iteration is the opposite of that — one virtual call and one
// variant-of-string Tuple copy per row per operator. ExecuteParallel
// (query/parallel.h) runs every plan, at every dop, on batch-at-a-time
// kernels instead:
//
//   ColumnBatch   one morsel as typed contiguous columns (int64 / double
//                 / string-ref) plus per-row type tags: a mem morsel is
//                 morsel_rows (1,024) rows borrowed zero-copy from
//                 Relation::Columnar(); a paged morsel is morsel_pages (4)
//                 pages, about 430 orders rows, decoded into arena scratch
//                 with each value written straight into its column's
//                 declared-type array.
//   selection     filters produce a selection vector (indices of passing
//                 rows) instead of moving any data.
//   kernels       EvalBatch / TestBatch / FilterBatch run an Expr over a
//                 whole batch in tight loops, and a scan column compared
//                 with a literal is read in place; join build/probe hash
//                 whole key columns and chase per-partition chains built
//                 over contiguous arrays, bucketed by the hash bits above
//                 the partition bits; BatchAggTable folds column spans
//                 into per-worker open-addressed groups.
//
// Everything transient lives in per-worker slab arenas (common/arena.h):
// scratch resets every morsel, state every query, both retain their
// chunks — so the steady-state morsel body performs zero operator-new
// calls, for mem and paged scans alike (asserted through the
// counting-allocator hook by bench_parallel_exec and parallel_exec_test).
//
// Semantics are pinned cell-for-cell to the serial operators the
// reference executor runs: CompareValues / HashValue equivalences (ints
// hash through their double image, null keys match null keys in joins),
// Expr null propagation, And/Or short-circuit (the right side is only
// evaluated for rows the left side did not decide — a division-by-zero
// on a short-circuited row must NOT error), and the exact error strings.
// The equivalence suite (tests/batch_test.cc) holds the batch results
// order-normalised identical to the serial executor's at dop 1/2/4/8.

#ifndef DBM_QUERY_BATCH_H_
#define DBM_QUERY_BATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "data/relation.h"
#include "query/aggregate.h"
#include "query/expr.h"
#include "storage/paged_relation.h"

namespace dbm::query {

/// Join-table partitions. Each worker's collector fills all of them; the
/// merge hands each partition to exactly one worker.
constexpr size_t kBatchPartitions = 16;

/// The join-table partition of key hash `h`.
inline size_t PartitionOf(uint64_t h) { return h % kBatchPartitions; }

/// The bucket of key hash `h` in a partition table of mask + 1 buckets:
/// the hash bits above the partition bits. Every key of a partition
/// shares its low bits, so bucketing by them would leave all but one in
/// kBatchPartitions buckets empty. The build (MergePartition) and the
/// probe both call this.
inline size_t BucketOf(uint64_t h, uint64_t mask) {
  return (h / kBatchPartitions) & mask;
}

/// One untyped cell: the tag says which payload is live. Trivially
/// copyable so cells can live in arenas and be memcpy'd by ArenaVec.
/// String payloads are views — into relation storage, an arena, or an
/// expression literal — never owned.
struct Cell {
  data::ValueType tag = data::ValueType::kNull;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

Cell CellFromValue(const data::Value& v);
data::Value CellToValue(const Cell& c);
/// Mirrors data::CompareValues (null < numbers < strings; int/double
/// compare numerically; strings lexicographically).
int CompareCells(const Cell& a, const Cell& b);
/// Mirrors data::HashValue over the equivalent Value.
uint64_t HashCell(const Cell& c);
/// Mirrors Expr::Test truthiness: null false, numbers non-zero, strings
/// non-empty.
bool CellTruthy(const Cell& c);

/// One scan column: per-row tags plus typed arrays (only the arrays the
/// column uses are non-null). Pointers borrow from Relation::Columnar()
/// or from arena scratch; the batch never owns storage. A non-null array
/// covers every row of the batch. A paged column holds its tags and its
/// declared type's array only (none for a column declared null).
struct Column {
  const uint8_t* tags = nullptr;  // data::ValueType per row
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const std::string_view* strings = nullptr;
};

inline Cell CellOf(const Column& c, size_t row) {
  Cell out;
  out.tag = static_cast<data::ValueType>(c.tags[row]);
  switch (out.tag) {
    case data::ValueType::kNull:
      break;
    case data::ValueType::kInt:
      out.i = c.ints[row];
      break;
    case data::ValueType::kDouble:
      out.d = c.doubles[row];
      break;
    case data::ValueType::kString:
      out.s = c.strings[row];
      break;
  }
  return out;
}

/// A morsel's worth of rows as columns. `cols` points into arena scratch
/// (rewritten every morsel); rows is the physical batch height.
struct ColumnBatch {
  size_t rows = 0;
  size_t ncols = 0;
  const Column* cols = nullptr;
};

/// Where a visible column of a pipeline view resolves to.
enum class ColSrc : uint8_t {
  kScan,      // batch->cols[off] at the position's scan row
  kSeg,       // segs[seg][pos][off] — a joined build row's cells
  kComputed,  // computed[off][pos] — a projected/evaluated column
};

struct ColRef {
  ColSrc src = ColSrc::kScan;
  uint16_t seg = 0;
  uint32_t off = 0;
};

/// A positional view over the pipeline at some point: scan columns,
/// joined build-row segments, and computed columns, unified behind
/// Get(col, pos). Positions are dense pipeline indices; `pos_to_row`
/// maps them back to scan rows (null = identity, i.e. pos IS the row).
/// A null `colmap` means the view is exactly the scan columns.
struct BatchView {
  const ColumnBatch* batch = nullptr;
  const uint32_t* pos_to_row = nullptr;
  const ColRef* colmap = nullptr;
  size_t arity = 0;
  const Cell* const* const* segs = nullptr;  // segs[seg][pos] = row cells
  const Cell* const* computed = nullptr;     // computed[off][pos]

  Cell Get(size_t col, uint32_t pos) const {
    ColRef r;
    if (colmap != nullptr) {
      r = colmap[col];
    } else {
      r.off = static_cast<uint32_t>(col);
    }
    switch (r.src) {
      case ColSrc::kSeg:
        return segs[r.seg][pos][r.off];
      case ColSrc::kComputed:
        return computed[r.off][pos];
      case ColSrc::kScan:
      default: {
        size_t row = pos_to_row != nullptr ? pos_to_row[pos] : pos;
        return CellOf(batch->cols[r.off], row);
      }
    }
  }
};

/// Evaluates `e` for the `n` positions sel[0..n) of `v` (sel == null is
/// the identity 0..n), writing one cell per position into out[0..n).
/// Temporaries come from `scratch`. Error strings match Expr::Eval; when
/// several rows of a batch would error, which one surfaces may differ
/// from row-at-a-time order (an erroring query still errors).
Status EvalBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, Cell* out, Arena* scratch);

/// Expr::Test over a batch: out[i] = 1 where the predicate passes, else
/// 0. And/Or evaluate the right child only on the rows the left child
/// left undecided — exactly Expr::Test's short-circuit. A comparison of a
/// scan column with a literal (either order) reads the column's tags and
/// typed array in place and evaluates the literal once; its verdict is
/// CompareCells's (a null fails, a NaN compares equal to every number,
/// strings rank above numbers). Every other shape goes through
/// EvalBatch.
Status TestBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, uint8_t* out, Arena* scratch);

/// Filter kernel: compacts sel[0..n) in place to the positions where `e`
/// passes, with no branch on the verdicts; returns the surviving count
/// through *out_n.
Status FilterBatch(const Expr& e, const BatchView& v, uint32_t* sel,
                   size_t n, size_t* out_n, Arena* scratch);

/// Hash kernel: out[i] = HashCell(v.Get(col, pos_i)) for the selected
/// positions — the probe hashes its key column in this one pass before
/// it walks any chain.
void HashColumn(const BatchView& v, size_t col, const uint32_t* sel,
                size_t n, uint64_t* out);

/// Loads a mem-scan morsel [begin, end) as zero-copy column borrows from
/// a relation's cached columnar view (rel.Columnar(), resolved once per
/// query by the coordinator). The Column array itself comes from
/// `scratch`.
void LoadMemBatch(const data::ColumnarView& view, size_t begin, size_t end,
                  Arena* scratch, ColumnBatch* out);

/// Loads a paged-scan morsel (pages [page_begin, page_end)) a page at a
/// time: PagedRelation::DecodePage pins each page once and decodes every
/// record straight into `scratch` columns. Each column's tags and its
/// declared type's array are sized once, before decoding, to
/// rel.max_rows_per_page() rows per page; every value's tag and payload
/// are written at its row index, string payloads copied out of the
/// frame. That is one getpage per page, no growth copy, and once the
/// arena is warm the load allocates nothing. A value that is neither
/// null nor its column's declared type (a damaged page, or a Recover
/// under the wrong schema) is IoError, and so is a value for a row past
/// the sized arrays, which only a damaged page's partial last record can
/// send — that write is skipped. `raw_rows` counts decoded rows.
Status LoadPagedBatch(const storage::PagedRelation& rel, size_t page_begin,
                      size_t page_end, Arena* scratch, ColumnBatch* out,
                      uint64_t* raw_rows);

/// Per-worker build-side collector for one join stage: rows land in
/// hash partitions as row-major cell arrays. String payloads are copied
/// into the state arena so they outlive the scanned morsel.
class BuildCollector {
 public:
  struct Part {
    ArenaVec<uint64_t> hashes;
    ArenaVec<Cell> cells;  // row-major, ncols per row
  };

  void Init(size_t ncols, size_t key_col, Arena* state) {
    ncols_ = ncols;
    key_col_ = key_col;
    arena_ = state;
    for (Part& p : parts_) {
      p.hashes.Init(state);
      p.cells.Init(state);
    }
  }

  /// Folds the selected rows of a scan batch into the partitions.
  void AddBatch(const ColumnBatch& b, const uint32_t* sel, size_t n);

  const Part& part(size_t p) const { return parts_[p]; }
  size_t ncols() const { return ncols_; }

 private:
  Part parts_[kBatchPartitions];
  size_t ncols_ = 0;
  size_t key_col_ = 0;
  Arena* arena_ = nullptr;
};

/// One merged partition of a stage's hash table: contiguous row-major
/// cells + hashes, with a power-of-two bucket array chaining 1-based row
/// ids (0 = empty). Built single-threaded per partition, read-only at
/// probe time.
struct BatchStagePart {
  const Cell* cells = nullptr;
  const uint64_t* hashes = nullptr;
  const uint32_t* heads = nullptr;
  const uint32_t* next = nullptr;
  size_t rows = 0;
  uint64_t mask = 0;
};

/// A join stage's merged table.
struct BatchStageTable {
  BatchStagePart parts[kBatchPartitions];
  size_t ncols = 0;      // build-side arity
  size_t key_col = 0;    // build key within a cells row
  size_t probe_col = 0;  // probe key within the pipeline schema here
};

/// Merges partition `p` of `n` collectors into `out`, allocating the
/// merged arrays from `arena` (the merging worker's state arena).
void MergePartition(const BuildCollector* collectors, size_t n, size_t p,
                    Arena* arena, BatchStagePart* out);

/// Per-worker open-addressed grouped-aggregation table over arena
/// storage, for any GROUP BY arity. Folds shaped batch spans; exports its
/// partial groups, in insertion order, into one GroupAccumulator
/// (GroupAccumulator::FoldPartial), whose Finish() gives the serial
/// HashAggregate's deterministic output order.
class BatchAggTable {
 public:
  void Init(const std::vector<size_t>* group_by,
            const std::vector<AggSpec>* aggs, Arena* state);

  /// Folds positions sel[0..n) of the shaped view (sel == null =
  /// identity).
  void Fold(const BatchView& v, const uint32_t* sel, size_t n);

  void ExportTo(GroupAccumulator* acc) const;
  size_t groups() const { return ngroups_; }

 private:
  uint32_t FindOrInsert(const Cell* key, uint64_t h);
  void Rehash(size_t nslots);

  const std::vector<size_t>* group_by_ = nullptr;
  const std::vector<AggSpec>* aggs_ = nullptr;
  Arena* arena_ = nullptr;
  // Groups as parallel arena arrays: keys row-major (nkeys per group),
  // agg state (naggs per group).
  ArenaVec<Cell> keys_;
  ArenaVec<double> sums_, mins_, maxs_;
  ArenaVec<uint64_t> counts_;
  ArenaVec<uint64_t> hashes_;  // per group, for cheap rehash/probe
  Cell* key_ = nullptr;        // Fold's probe key, one cell per GROUP BY key
  uint32_t* slots_ = nullptr;  // 1-based group ids, 0 = empty
  size_t nslots_ = 0;
  size_t ngroups_ = 0;
};

}  // namespace dbm::query

#endif  // DBM_QUERY_BATCH_H_
