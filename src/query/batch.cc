#include "query/batch.h"

#include <cstring>

#include "common/strings.h"

namespace dbm::query {

using data::Value;
using data::ValueType;

Cell CellFromValue(const Value& v) {
  Cell c;
  c.tag = data::TypeOf(v);
  switch (c.tag) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      c.i = std::get<int64_t>(v);
      break;
    case ValueType::kDouble:
      c.d = std::get<double>(v);
      break;
    case ValueType::kString:
      c.s = std::get<std::string>(v);
      break;
  }
  return c;
}

Value CellToValue(const Cell& c) {
  switch (c.tag) {
    case ValueType::kInt:
      return Value{c.i};
    case ValueType::kDouble:
      return Value{c.d};
    case ValueType::kString:
      return Value{std::string(c.s)};
    case ValueType::kNull:
    default:
      return Value{};
  }
}

namespace {

/// Cross-type rank, as in CompareValues: null < numbers < strings.
inline int RankOf(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

inline double NumOf(const Cell& c) {
  return c.tag == ValueType::kInt ? static_cast<double>(c.i) : c.d;
}

}  // namespace

int CompareCells(const Cell& a, const Cell& b) {
  int ra = RankOf(a.tag), rb = RankOf(b.tag);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1: {
      double da = NumOf(a), db = NumOf(b);
      if (da < db) return -1;
      if (da > db) return 1;
      return 0;
    }
    default: {
      int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
  }
}

uint64_t HashCell(const Cell& c) {
  switch (c.tag) {
    case ValueType::kInt:
      return data::HashNumeric(static_cast<double>(c.i));
    case ValueType::kDouble:
      return data::HashNumeric(c.d);
    case ValueType::kString:
      return data::HashValue(c.s);
    case ValueType::kNull:
    default:
      return data::HashNull();
  }
}

bool CellTruthy(const Cell& c) {
  switch (c.tag) {
    case ValueType::kInt:
      return c.i != 0;
    case ValueType::kDouble:
      return c.d != 0.0;
    case ValueType::kString:
      return !c.s.empty();
    case ValueType::kNull:
    default:
      return false;
  }
}

namespace {
inline uint32_t PosOf(const uint32_t* sel, size_t i) {
  return sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
}
}  // namespace

Status EvalBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, Cell* out, Arena* scratch) {
  switch (e.kind) {
    case ExprKind::kColumn: {
      if (e.column >= v.arity) {
        return Status::OutOfRange(StrFormat(
            "column %zu beyond tuple arity %zu", e.column, v.arity));
      }
      for (size_t i = 0; i < n; ++i) {
        out[i] = v.Get(e.column, PosOf(sel, i));
      }
      return Status::OK();
    }
    case ExprKind::kLiteral: {
      Cell c = CellFromValue(e.literal);
      for (size_t i = 0; i < n; ++i) out[i] = c;
      return Status::OK();
    }
    case ExprKind::kCompare: {
      Cell* l = scratch->AllocateArray<Cell>(n);
      Cell* r = scratch->AllocateArray<Cell>(n);
      DBM_RETURN_NOT_OK(EvalBatch(*e.left, v, sel, n, l, scratch));
      DBM_RETURN_NOT_OK(EvalBatch(*e.right, v, sel, n, r, scratch));
      for (size_t i = 0; i < n; ++i) {
        if (l[i].tag == ValueType::kNull || r[i].tag == ValueType::kNull) {
          out[i] = Cell{};  // null propagates
          continue;
        }
        int c = CompareCells(l[i], r[i]);
        bool pass = false;
        switch (e.cmp) {
          case CmpOp::kEq: pass = c == 0; break;
          case CmpOp::kNe: pass = c != 0; break;
          case CmpOp::kLt: pass = c < 0; break;
          case CmpOp::kLe: pass = c <= 0; break;
          case CmpOp::kGt: pass = c > 0; break;
          case CmpOp::kGe: pass = c >= 0; break;
        }
        out[i].tag = ValueType::kInt;
        out[i].i = pass ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot: {
      uint8_t* t = scratch->AllocateArray<uint8_t>(n);
      DBM_RETURN_NOT_OK(TestBatch(e, v, sel, n, t, scratch));
      for (size_t i = 0; i < n; ++i) {
        out[i].tag = ValueType::kInt;
        out[i].i = t[i] ? 1 : 0;
        out[i].s = {};
      }
      return Status::OK();
    }
    case ExprKind::kArith: {
      Cell* l = scratch->AllocateArray<Cell>(n);
      Cell* r = scratch->AllocateArray<Cell>(n);
      DBM_RETURN_NOT_OK(EvalBatch(*e.left, v, sel, n, l, scratch));
      DBM_RETURN_NOT_OK(EvalBatch(*e.right, v, sel, n, r, scratch));
      for (size_t i = 0; i < n; ++i) {
        if (l[i].tag == ValueType::kNull || r[i].tag == ValueType::kNull) {
          out[i] = Cell{};
          continue;
        }
        if (l[i].tag == ValueType::kString ||
            r[i].tag == ValueType::kString) {
          return Status::InvalidArgument("arithmetic on string value");
        }
        bool as_double = l[i].tag == ValueType::kDouble ||
                         r[i].tag == ValueType::kDouble;
        double a = NumOf(l[i]), b = NumOf(r[i]), res = 0;
        switch (e.arith) {
          case ArithOp::kAdd: res = a + b; break;
          case ArithOp::kSub: res = a - b; break;
          case ArithOp::kMul: res = a * b; break;
          case ArithOp::kDiv:
            if (b == 0) return Status::InvalidArgument("division by zero");
            res = a / b;
            break;
        }
        out[i].s = {};
        if (as_double || e.arith == ArithOp::kDiv) {
          out[i].tag = ValueType::kDouble;
          out[i].d = res;
        } else {
          out[i].tag = ValueType::kInt;
          out[i].i = static_cast<int64_t>(res);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown expression kind");
}

namespace {

/// Calls body(i, row) for positions sel[0..n) of `v`, with `row` the
/// position's scan row. The four shapes of sel and pos_to_row each get
/// their own loop.
template <typename Body>
inline void ForEachScanRow(const BatchView& v, const uint32_t* sel, size_t n,
                           Body&& body) {
  const uint32_t* map = v.pos_to_row;
  if (sel == nullptr && map == nullptr) {
    for (size_t i = 0; i < n; ++i) body(i, i);
  } else if (map == nullptr) {
    for (size_t i = 0; i < n; ++i) body(i, sel[i]);
  } else if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) body(i, map[i]);
  } else {
    for (size_t i = 0; i < n; ++i) body(i, map[sel[i]]);
  }
}

/// TestBatch for `column <op> literal` on a scan column: reads the
/// column's tags and typed array in place and evaluates the literal
/// once. pass[c + 1] is the verdict for CompareCells(cell, literal) == c.
void CompareScanToLiteral(const BatchView& v, const Column& col,
                          const Cell& lit, const uint8_t pass[3],
                          const uint32_t* sel, size_t n, uint8_t* out) {
  const uint8_t* tags = col.tags;
  switch (lit.tag) {
    case ValueType::kNull:
      std::memset(out, 0, n);
      return;
    case ValueType::kString: {
      // Numbers rank below strings.
      const std::string_view l = lit.s;
      ForEachScanRow(v, sel, n, [&](size_t i, size_t row) {
        int c = -1;
        switch (static_cast<ValueType>(tags[row])) {
          case ValueType::kNull:
            out[i] = 0;
            return;
          case ValueType::kString: {
            int cmp = col.strings[row].compare(l);
            c = (cmp > 0) - (cmp < 0);
            break;
          }
          default:
            break;
        }
        out[i] = pass[c + 1];
      });
      return;
    }
    default: {
      // Numbers compare through their double image, so a NaN compares
      // equal to every number; strings rank above numbers.
      const double l = NumOf(lit);
      ForEachScanRow(v, sel, n, [&](size_t i, size_t row) {
        double x = 0;
        switch (static_cast<ValueType>(tags[row])) {
          case ValueType::kNull:
            out[i] = 0;
            return;
          case ValueType::kInt:
            x = static_cast<double>(col.ints[row]);
            break;
          case ValueType::kDouble:
            x = col.doubles[row];
            break;
          case ValueType::kString:
            out[i] = pass[2];
            return;
        }
        out[i] = pass[(x > l) - (x < l) + 1];
      });
      return;
    }
  }
}

/// The scan column a compare operand reads in place, or null when the
/// operand is not a column of `v`'s scan batch.
const Column* ScanColumnOf(const Expr& operand, const BatchView& v) {
  if (operand.kind != ExprKind::kColumn || operand.column >= v.arity) {
    return nullptr;
  }
  if (v.colmap == nullptr) return &v.batch->cols[operand.column];
  const ColRef& r = v.colmap[operand.column];
  return r.src == ColSrc::kScan ? &v.batch->cols[r.off] : nullptr;
}

/// The operator that gives the same verdict with its operands swapped.
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

}  // namespace

Status TestBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, uint8_t* out, Arena* scratch) {
  switch (e.kind) {
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = e.kind == ExprKind::kAnd;
      DBM_RETURN_NOT_OK(TestBatch(*e.left, v, sel, n, out, scratch));
      // Short-circuit: the right side runs only on rows the left side
      // left undecided (left-true for AND, left-false for OR) — a row
      // the left side decided must never evaluate (or error on) the
      // right side, exactly like Expr::Test.
      uint32_t* subpos = scratch->AllocateArray<uint32_t>(n);
      uint32_t* subidx = scratch->AllocateArray<uint32_t>(n);
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        bool undecided = is_and ? out[i] != 0 : out[i] == 0;
        if (undecided) {
          subpos[m] = PosOf(sel, i);
          subidx[m] = static_cast<uint32_t>(i);
          ++m;
        }
      }
      if (m == 0) return Status::OK();
      uint8_t* r = scratch->AllocateArray<uint8_t>(m);
      DBM_RETURN_NOT_OK(TestBatch(*e.right, v, subpos, m, r, scratch));
      for (size_t j = 0; j < m; ++j) out[subidx[j]] = r[j];
      return Status::OK();
    }
    case ExprKind::kNot: {
      DBM_RETURN_NOT_OK(TestBatch(*e.left, v, sel, n, out, scratch));
      for (size_t i = 0; i < n; ++i) out[i] = out[i] ? 0 : 1;
      return Status::OK();
    }
    case ExprKind::kCompare: {
      const Expr* lit = e.right.get();
      const Column* col = ScanColumnOf(*e.left, v);
      CmpOp op = e.cmp;
      if (col == nullptr || lit->kind != ExprKind::kLiteral) {
        lit = e.left.get();
        col = ScanColumnOf(*e.right, v);
        op = Mirror(op);
      }
      if (col == nullptr || lit->kind != ExprKind::kLiteral) break;
      // Verdicts for CompareCells(cell, literal) = -1, 0, 1.
      static constexpr uint8_t kPass[][3] = {
          {0, 1, 0},  // kEq
          {1, 0, 1},  // kNe
          {1, 0, 0},  // kLt
          {1, 1, 0},  // kLe
          {0, 0, 1},  // kGt
          {0, 1, 1},  // kGe
      };
      CompareScanToLiteral(v, *col, CellFromValue(lit->literal),
                           kPass[static_cast<size_t>(op)], sel, n, out);
      return Status::OK();
    }
    default:
      break;
  }
  Cell* tmp = scratch->AllocateArray<Cell>(n);
  DBM_RETURN_NOT_OK(EvalBatch(e, v, sel, n, tmp, scratch));
  for (size_t i = 0; i < n; ++i) out[i] = CellTruthy(tmp[i]) ? 1 : 0;
  return Status::OK();
}

Status FilterBatch(const Expr& e, const BatchView& v, uint32_t* sel,
                   size_t n, size_t* out_n, Arena* scratch) {
  uint8_t* pass = scratch->AllocateArray<uint8_t>(n);
  DBM_RETURN_NOT_OK(TestBatch(e, v, sel, n, pass, scratch));
  // TestBatch verdicts are 0 or 1: every position is written, and only a
  // passing one advances the cursor.
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[kept] = sel[i];
    kept += pass[i];
  }
  *out_n = kept;
  return Status::OK();
}

void HashColumn(const BatchView& v, size_t col, const uint32_t* sel,
                size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashCell(v.Get(col, PosOf(sel, i)));
  }
}

void LoadMemBatch(const data::ColumnarView& view, size_t begin, size_t end,
                  Arena* scratch, ColumnBatch* out) {
  size_t ncols = view.columns.size();
  Column* cols = scratch->AllocateArray<Column>(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const data::ColumnVector& cv = view.columns[c];
    cols[c].tags = cv.tags.data() + begin;
    cols[c].ints = cv.ints.empty() ? nullptr : cv.ints.data() + begin;
    cols[c].doubles =
        cv.doubles.empty() ? nullptr : cv.doubles.data() + begin;
    cols[c].strings =
        cv.strings.empty() ? nullptr : cv.strings.data() + begin;
  }
  out->rows = end - begin;
  out->ncols = ncols;
  out->cols = cols;
}

Status LoadPagedBatch(const storage::PagedRelation& rel, size_t page_begin,
                      size_t page_end, Arena* scratch, ColumnBatch* out,
                      uint64_t* raw_rows) {
  const data::Schema& schema = rel.schema();
  const size_t ncols = schema.size();
  const size_t cap = rel.max_rows_per_page() * (page_end - page_begin);
  // Each column's tags and its declared type's array, sized once.
  struct Dest {
    ValueType decl;
    uint8_t* tags;
    int64_t* ints;
    double* doubles;
    std::string_view* strings;
  };
  Dest* dest = scratch->AllocateArray<Dest>(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    Dest& d = dest[c];
    d = Dest{schema.field(c).type, scratch->AllocateArray<uint8_t>(cap),
             nullptr, nullptr, nullptr};
    switch (d.decl) {
      case ValueType::kInt:
        d.ints = scratch->AllocateArray<int64_t>(cap);
        break;
      case ValueType::kDouble:
        d.doubles = scratch->AllocateArray<double>(cap);
        break;
      case ValueType::kString:
        d.strings = scratch->AllocateArray<std::string_view>(cap);
        break;
      case ValueType::kNull:
        break;
    }
  }
  // The sink writes each value's tag and payload at its row; a null
  // writes the zero payload its FieldView carries. String payloads view
  // the pinned frame, so they are copied into the scratch arena, which
  // outlives the pin. A partial last record can send values for row
  // `cap`, which the guard skips.
  size_t row = 0;
  bool past_cap = false;
  size_t bad_col = ncols;
  ValueType bad_type = ValueType::kNull;
  auto sink = [&](size_t c, const data::FieldView& f) {
    if (row >= cap) {
      past_cap = true;
      return;
    }
    const Dest& d = dest[c];
    d.tags[row] = static_cast<uint8_t>(f.type);
    switch (d.decl) {
      case ValueType::kInt:
        d.ints[row] = f.i;
        break;
      case ValueType::kDouble:
        d.doubles[row] = f.d;
        break;
      case ValueType::kString:
        d.strings[row] = scratch->CopyString(f.s);
        break;
      case ValueType::kNull:
        break;
    }
    if (f.type != d.decl && f.type != ValueType::kNull && bad_col == ncols) {
      bad_col = c;
      bad_type = f.type;
    }
    row += c + 1 == ncols;
  };
  size_t rows = 0;
  for (size_t page = page_begin; page < page_end; ++page) {
    DBM_ASSIGN_OR_RETURN(size_t records, rel.DecodePage(page, sink));
    rows += records;
    if (past_cap) {
      return Status::IoError(StrFormat(
          "page %zu of %s: a record past the %zu-row page bound", page,
          rel.name().c_str(), rel.max_rows_per_page()));
    }
    if (bad_col != ncols) {
      return Status::IoError(StrFormat(
          "page %zu of %s: column '%s' expects %s, got %s", page,
          rel.name().c_str(), schema.field(bad_col).name.c_str(),
          data::ValueTypeName(dest[bad_col].decl),
          data::ValueTypeName(bad_type)));
    }
  }
  Column* cols = scratch->AllocateArray<Column>(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    cols[c] = Column{dest[c].tags, dest[c].ints, dest[c].doubles,
                     dest[c].strings};
  }
  out->rows = rows;
  out->ncols = ncols;
  out->cols = cols;
  if (raw_rows != nullptr) *raw_rows += rows;
  return Status::OK();
}

void BuildCollector::AddBatch(const ColumnBatch& b, const uint32_t* sel,
                              size_t n) {
  for (size_t k = 0; k < n; ++k) {
    size_t row = PosOf(sel, k);
    uint64_t h = HashCell(CellOf(b.cols[key_col_], row));
    Part& p = parts_[PartitionOf(h)];
    p.hashes.PushBack(h);
    for (size_t c = 0; c < ncols_; ++c) {
      Cell cell = CellOf(b.cols[c], row);
      if (cell.tag == ValueType::kString) {
        cell.s = arena_->CopyString(cell.s);
      }
      p.cells.PushBack(cell);
    }
  }
}

void MergePartition(const BuildCollector* collectors, size_t n, size_t p,
                    Arena* arena, BatchStagePart* out) {
  size_t total = 0;
  size_t ncols = n > 0 ? collectors[0].ncols() : 0;
  for (size_t w = 0; w < n; ++w) {
    total += collectors[w].part(p).hashes.size();
  }
  *out = BatchStagePart{};
  out->rows = total;
  if (total == 0) return;
  Cell* cells = arena->AllocateArray<Cell>(total * ncols);
  uint64_t* hashes = arena->AllocateArray<uint64_t>(total);
  size_t at = 0;
  for (size_t w = 0; w < n; ++w) {
    const BuildCollector::Part& part = collectors[w].part(p);
    size_t rows = part.hashes.size();
    if (rows == 0) continue;
    std::memcpy(hashes + at, part.hashes.data(), rows * sizeof(uint64_t));
    std::memcpy(cells + at * ncols, part.cells.data(),
                rows * ncols * sizeof(Cell));
    at += rows;
  }
  size_t nbuckets = 1;
  while (nbuckets < total * 2) nbuckets <<= 1;
  uint32_t* heads = arena->AllocateArray<uint32_t>(nbuckets);
  std::memset(heads, 0, nbuckets * sizeof(uint32_t));
  uint32_t* next = arena->AllocateArray<uint32_t>(total);
  uint64_t mask = nbuckets - 1;
  for (size_t r = 0; r < total; ++r) {
    size_t b = BucketOf(hashes[r], mask);
    next[r] = heads[b];
    heads[b] = static_cast<uint32_t>(r + 1);
  }
  out->cells = cells;
  out->hashes = hashes;
  out->heads = heads;
  out->next = next;
  out->mask = mask;
}

void BatchAggTable::Init(const std::vector<size_t>* group_by,
                         const std::vector<AggSpec>* aggs, Arena* state) {
  group_by_ = group_by;
  aggs_ = aggs;
  arena_ = state;
  keys_.Init(state);
  sums_.Init(state);
  mins_.Init(state);
  maxs_.Init(state);
  counts_.Init(state);
  hashes_.Init(state);
  key_ = state->AllocateArray<Cell>(group_by->size());
  slots_ = nullptr;
  nslots_ = 0;
  ngroups_ = 0;
  Rehash(64);
}

void BatchAggTable::Rehash(size_t nslots) {
  slots_ = arena_->AllocateArray<uint32_t>(nslots);
  std::memset(slots_, 0, nslots * sizeof(uint32_t));
  nslots_ = nslots;
  size_t mask = nslots - 1;
  for (size_t g = 0; g < ngroups_; ++g) {
    size_t b = hashes_[g] & mask;
    while (slots_[b] != 0) b = (b + 1) & mask;
    slots_[b] = static_cast<uint32_t>(g + 1);
  }
}

uint32_t BatchAggTable::FindOrInsert(const Cell* key, uint64_t h) {
  // Grow at 70% load so probe chains stay short; the abandoned slot
  // array is reclaimed wholesale at the arena's next reset.
  if ((ngroups_ + 1) * 10 >= nslots_ * 7) Rehash(nslots_ * 2);
  size_t nk = group_by_->size();
  size_t mask = nslots_ - 1;
  size_t b = h & mask;
  while (slots_[b] != 0) {
    uint32_t g = slots_[b] - 1;
    if (hashes_[g] == h) {
      bool equal = true;
      for (size_t k = 0; k < nk; ++k) {
        if (CompareCells(keys_[g * nk + k], key[k]) != 0) {
          equal = false;
          break;
        }
      }
      if (equal) return g;
    }
    b = (b + 1) & mask;
  }
  slots_[b] = static_cast<uint32_t>(ngroups_ + 1);
  hashes_.PushBack(h);
  for (size_t k = 0; k < nk; ++k) {
    Cell c = key[k];
    if (c.tag == ValueType::kString) c.s = arena_->CopyString(c.s);
    keys_.PushBack(c);
  }
  for (size_t a = 0; a < aggs_->size(); ++a) {
    sums_.PushBack(0);
    mins_.PushBack(0);
    maxs_.PushBack(0);
    counts_.PushBack(0);
  }
  return static_cast<uint32_t>(ngroups_++);
}

void BatchAggTable::Fold(const BatchView& v, const uint32_t* sel, size_t n) {
  size_t nk = group_by_->size();
  size_t na = aggs_->size();
  for (size_t i = 0; i < n; ++i) {
    uint32_t pos = PosOf(sel, i);
    uint64_t h = 14695981039346656037ULL;
    for (size_t k = 0; k < nk; ++k) {
      key_[k] = v.Get((*group_by_)[k], pos);
      h = data::HashCombine(h, HashCell(key_[k]));
    }
    uint32_t g = FindOrInsert(key_, h);
    for (size_t a = 0; a < na; ++a) {
      const AggSpec& spec = (*aggs_)[a];
      size_t slot = g * na + a;
      if (spec.func == AggFunc::kCount) {
        ++counts_[slot];
        continue;
      }
      Cell val = v.Get(spec.column, pos);
      if (val.tag == ValueType::kNull) continue;
      // Mirrors the row accumulator's NumericOf: strings fold as 0.0.
      double d = val.tag == ValueType::kString ? 0.0 : NumOf(val);
      if (counts_[slot] == 0) {
        mins_[slot] = maxs_[slot] = d;
      } else {
        if (d < mins_[slot]) mins_[slot] = d;
        if (d > maxs_[slot]) maxs_[slot] = d;
      }
      sums_[slot] += d;
      ++counts_[slot];
    }
  }
}

void BatchAggTable::ExportTo(GroupAccumulator* acc) const {
  size_t nk = group_by_->size();
  size_t na = aggs_->size();
  for (size_t g = 0; g < ngroups_; ++g) {
    data::Tuple key;
    key.values.reserve(nk);
    for (size_t k = 0; k < nk; ++k) {
      key.values.push_back(CellToValue(keys_[g * nk + k]));
    }
    acc->FoldPartial(std::move(key), sums_.data() + g * na,
                     mins_.data() + g * na, maxs_.data() + g * na,
                     counts_.data() + g * na);
  }
}

}  // namespace dbm::query
