#include "data/relation.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/payload_reader.h"
#include "common/strings.h"
#include "data/tuple_codec.h"

namespace dbm::data {

double Histogram::SelectivityLe(double x) const {
  uint64_t n = total();
  if (n == 0) return 0;
  if (x < lo) return 0;
  if (x >= hi) return 1;
  double width = (hi - lo) / static_cast<double>(buckets.size());
  if (width <= 0) return 1;
  double pos = (x - lo) / width;
  auto full = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(full);
  uint64_t below = 0;
  for (size_t i = 0; i < full && i < buckets.size(); ++i) below += buckets[i];
  double partial =
      full < buckets.size() ? frac * static_cast<double>(buckets[full]) : 0;
  return (static_cast<double>(below) + partial) / static_cast<double>(n);
}

double Histogram::SelectivityEq(double x) const {
  uint64_t n = total();
  if (n == 0 || x < lo || x > hi || buckets.empty()) return 0;
  double width = (hi - lo) / static_cast<double>(buckets.size());
  size_t idx = width <= 0
                   ? 0
                   : std::min(buckets.size() - 1,
                              static_cast<size_t>((x - lo) / width));
  // Uniformity within the bucket; assume the bucket holds width distinct
  // values for integer-like data (at least 1).
  double distinct_in_bucket = std::max(1.0, width);
  return static_cast<double>(buckets[idx]) /
         (distinct_in_bucket * static_cast<double>(n));
}

uint64_t Histogram::total() const {
  uint64_t n = 0;
  for (uint64_t b : buckets) n += b;
  return n;
}

void RelationStats::PerturbCardinality(double factor) {
  row_count = static_cast<uint64_t>(static_cast<double>(row_count) * factor);
  for (auto& [_, col] : columns) {
    col.count = static_cast<uint64_t>(static_cast<double>(col.count) * factor);
    col.distinct_estimate = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(col.distinct_estimate) * factor));
    for (uint64_t& b : col.histogram.buckets) {
      b = static_cast<uint64_t>(static_cast<double>(b) * factor);
    }
  }
}

Status Relation::Insert(Tuple tuple) {
  DBM_RETURN_NOT_OK(CheckTuple(schema_, tuple));
  rows_.push_back(std::move(tuple));
  InvalidateColumnar();
  return Status::OK();
}

const ColumnarView& Relation::Columnar() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  if (columnar_) return *columnar_;
  auto view = std::make_unique<ColumnarView>();
  view->rows = rows_.size();
  view->columns.resize(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    ColumnVector& col = view->columns[c];
    col.decl = schema_.field(c).type;
    col.tags.resize(rows_.size());
    // Every row carries a slot in each typed array so a cell is always
    // addressable by row index — null/absent slots are zeroed. This costs
    // memory over a packed layout but keeps kernel indexing branch-free.
    switch (col.decl) {
      case ValueType::kInt:
        col.ints.assign(rows_.size(), 0);
        break;
      case ValueType::kDouble:
        col.doubles.assign(rows_.size(), 0.0);
        break;
      case ValueType::kString:
        col.strings.assign(rows_.size(), std::string_view());
        break;
      case ValueType::kNull:
        break;
    }
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Value& v = rows_[r].at(c);
      ValueType t = TypeOf(v);
      col.tags[r] = static_cast<uint8_t>(t);
      switch (t) {
        case ValueType::kNull:
          break;
        case ValueType::kInt:
          if (col.ints.empty()) col.ints.assign(rows_.size(), 0);
          col.ints[r] = std::get<int64_t>(v);
          break;
        case ValueType::kDouble:
          if (col.doubles.empty()) col.doubles.assign(rows_.size(), 0.0);
          col.doubles[r] = std::get<double>(v);
          break;
        case ValueType::kString:
          if (col.strings.empty()) {
            col.strings.assign(rows_.size(), std::string_view());
          }
          col.strings[r] = std::get<std::string>(v);
          break;
      }
    }
  }
  columnar_ = std::move(view);
  return *columnar_;
}

RelationStats Relation::ComputeStatistics(size_t histogram_buckets) const {
  RelationStats stats;
  stats.row_count = rows_.size();
  for (size_t c = 0; c < schema_.size(); ++c) {
    const Field& field = schema_.field(c);
    ColumnStats col;
    std::set<uint64_t> distinct_hashes;
    bool numeric =
        field.type == ValueType::kInt || field.type == ValueType::kDouble;
    double mn = 0, mx = 0;
    bool first = true;
    for (const Tuple& row : rows_) {
      const Value& v = row.at(c);
      if (IsNull(v)) {
        ++col.nulls;
        continue;
      }
      ++col.count;
      distinct_hashes.insert(HashValue(v));
      if (numeric) {
        double d = TypeOf(v) == ValueType::kInt
                       ? static_cast<double>(std::get<int64_t>(v))
                       : std::get<double>(v);
        if (first || d < mn) mn = first ? d : std::min(mn, d);
        if (first || d > mx) mx = first ? d : std::max(mx, d);
        first = false;
      }
    }
    col.distinct_estimate = distinct_hashes.size();
    if (numeric && col.count > 0) {
      col.min = mn;
      col.max = mx;
      col.histogram.lo = mn;
      col.histogram.hi = mx;
      col.histogram.buckets.assign(histogram_buckets, 0);
      double width =
          (mx - mn) / static_cast<double>(histogram_buckets);
      for (const Tuple& row : rows_) {
        const Value& v = row.at(c);
        if (IsNull(v)) continue;
        double d = TypeOf(v) == ValueType::kInt
                       ? static_cast<double>(std::get<int64_t>(v))
                       : std::get<double>(v);
        size_t idx =
            width <= 0
                ? 0
                : std::min(histogram_buckets - 1,
                           static_cast<size_t>((d - mn) / width));
        ++col.histogram.buckets[idx];
      }
    }
    stats.columns[field.name] = std::move(col);
  }
  return stats;
}

Relation Relation::Sample(double fraction, uint64_t seed) const {
  Relation out(name_ + "-sample", schema_);
  Rng rng(seed);
  for (const Tuple& row : rows_) {
    if (rng.Bernoulli(fraction)) out.InsertUnchecked(row);
  }
  return out;
}

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}
bool GetString(PayloadReader* in, std::string* s) {
  uint32_t n = 0;
  std::string_view bytes;
  if (!in->Le(&n) || !in->Bytes(n, &bytes)) return false;
  s->assign(bytes);
  return true;
}

}  // namespace

// Layout: the name, the u32 column count, each column's name and type
// byte, the u64 row count, then every row in the tagged-value format
// (data/tuple_codec.h), rows back to back.
std::vector<uint8_t> Relation::Serialize() const {
  std::vector<uint8_t> out;
  PutString(&out, name_);
  PutU32(&out, static_cast<uint32_t>(schema_.size()));
  for (const Field& f : schema_.fields()) {
    PutString(&out, f.name);
    out.push_back(static_cast<uint8_t>(f.type));
  }
  PutU64(&out, rows_.size());
  const size_t head = out.size();
  out.resize(head + PayloadBytes());
  uint8_t* at = out.data() + head;
  for (const Tuple& row : rows_) at = EncodeTo(row, at);
  return out;
}

// Trusts nothing: a state blob or a shipped version may be corrupt. A
// column type outside ValueType and bytes after the last row are IoError
// (like a bad value tag), and every row must match the schema.
Result<Relation> Relation::Deserialize(const std::vector<uint8_t>& bytes) {
  PayloadReader in(
      {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  std::string name;
  uint32_t ncols = 0;
  if (!GetString(&in, &name)) return Status::IoError("truncated string");
  if (!in.Le(&ncols)) return Status::IoError("truncated u32");
  std::vector<Field> fields;
  for (uint32_t i = 0; i < ncols; ++i) {
    Field f;
    uint8_t type = 0;
    if (!GetString(&in, &f.name)) return Status::IoError("truncated string");
    if (!in.Le(&type)) return Status::IoError("truncated type");
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IoError("unknown column type " + std::to_string(type));
    }
    f.type = static_cast<ValueType>(type);
    fields.push_back(std::move(f));
  }
  uint64_t nrows = 0;
  if (!in.Le(&nrows)) return Status::IoError("truncated u64");
  Relation rel(std::move(name), Schema(std::move(fields)));
  const uint8_t* at = bytes.data() + (bytes.size() - in.remaining());
  const uint8_t* const end = bytes.data() + bytes.size();
  for (uint64_t r = 0; r < nrows; ++r) {
    Tuple row;
    size_t used = 0;
    DBM_RETURN_NOT_OK(DecodeValues(
        at, static_cast<size_t>(end - at), ncols,
        [&](size_t, const FieldView& f) { row.values.push_back(ToValue(f)); },
        &used));
    at += used;
    DBM_RETURN_NOT_OK(rel.Insert(std::move(row)));
  }
  if (at != end) return Status::IoError("trailing bytes after the last row");
  return rel;
}

size_t Relation::PayloadBytes() const {
  size_t bytes = 0;
  for (const Tuple& row : rows_) bytes += EncodedSize(row);
  return bytes;
}

namespace gen {

namespace {
const char* kCities[] = {"london", "paris",  "berlin", "madrid",
                         "rome",   "dublin", "oslo",   "vienna"};
const char* kFirst[] = {"ada",  "alan", "grace", "edsger",
                        "john", "mary", "tim",   "barbara"};
}  // namespace

Relation People(size_t n, uint64_t seed) {
  Schema schema({{"id", ValueType::kInt},
                 {"name", ValueType::kString},
                 {"age", ValueType::kInt},
                 {"city", ValueType::kString}});
  Relation rel("people", schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.values = {
        static_cast<int64_t>(i),
        std::string(kFirst[rng.Uniform(8)]) + "-" + std::to_string(i),
        rng.UniformInt(18, 90),
        std::string(kCities[rng.Uniform(8)]),
    };
    rel.InsertUnchecked(std::move(row));
  }
  return rel;
}

Relation Orders(size_t n, size_t n_people, double theta, uint64_t seed) {
  Schema schema({{"id", ValueType::kInt},
                 {"person_id", ValueType::kInt},
                 {"amount", ValueType::kDouble},
                 {"day", ValueType::kInt}});
  Relation rel("orders", schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.values = {
        static_cast<int64_t>(i),
        static_cast<int64_t>(rng.Zipf(n_people == 0 ? 1 : n_people, theta)),
        rng.UniformDouble(1.0, 500.0),
        rng.UniformInt(0, 364),
    };
    rel.InsertUnchecked(std::move(row));
  }
  return rel;
}

Relation SensorReadings(size_t n, uint64_t seed) {
  Schema schema({{"seq", ValueType::kInt},
                 {"temperature", ValueType::kDouble},
                 {"battery", ValueType::kDouble}});
  Relation rel("readings", schema);
  Rng rng(seed);
  double temp = 21.0;
  double battery = 100.0;
  for (size_t i = 0; i < n; ++i) {
    temp += rng.Gaussian(0, 0.15);
    battery = std::max(0.0, battery - rng.UniformDouble() * 0.01);
    Tuple row;
    row.values = {static_cast<int64_t>(i), temp, battery};
    rel.InsertUnchecked(std::move(row));
  }
  return rel;
}

}  // namespace gen
}  // namespace dbm::data
