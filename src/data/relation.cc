#include "data/relation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/strings.h"

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

struct Reader {
  const std::vector<uint8_t>& bytes;
  size_t pos = 0;

  Result<uint32_t> U32() {
    if (pos + 4 > bytes.size()) return Status::IoError("truncated u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  Result<uint64_t> U64() {
    if (pos + 8 > bytes.size()) return Status::IoError("truncated u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  Result<std::string> String() {
    DBM_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (pos + len > bytes.size()) return Status::IoError("truncated string");
    std::string s(bytes.begin() + static_cast<long>(pos),
                  bytes.begin() + static_cast<long>(pos + len));
    pos += len;
    return s;
  }
};

}  // namespace

std::vector<uint8_t> Relation::Serialize() const {
  std::vector<uint8_t> out;
  PutString(&out, name_);
  PutU32(&out, static_cast<uint32_t>(schema_.size()));
  for (const Field& f : schema_.fields()) {
    PutString(&out, f.name);
    out.push_back(static_cast<uint8_t>(f.type));
  }
  PutU64(&out, rows_.size());
  for (const Tuple& row : rows_) {
    for (const Value& v : row.values) {
      out.push_back(static_cast<uint8_t>(TypeOf(v)));
      switch (TypeOf(v)) {
        case ValueType::kNull:
          break;
        case ValueType::kInt:
          PutU64(&out, static_cast<uint64_t>(std::get<int64_t>(v)));
          break;
        case ValueType::kDouble: {
          double d = std::get<double>(v);
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          PutU64(&out, bits);
          break;
        }
        case ValueType::kString:
          PutString(&out, std::get<std::string>(v));
          break;
      }
    }
  }
  return out;
}

Result<Relation> Relation::Deserialize(const std::vector<uint8_t>& bytes) {
  Reader r{bytes};
  DBM_ASSIGN_OR_RETURN(std::string name, r.String());
  DBM_ASSIGN_OR_RETURN(uint32_t ncols, r.U32());
  std::vector<Field> fields;
  for (uint32_t i = 0; i < ncols; ++i) {
    Field f;
    DBM_ASSIGN_OR_RETURN(f.name, r.String());
    if (r.pos >= bytes.size()) return Status::IoError("truncated type");
    f.type = static_cast<ValueType>(bytes[r.pos++]);
    fields.push_back(std::move(f));
  }
  Relation rel(name, Schema(std::move(fields)));
  DBM_ASSIGN_OR_RETURN(uint64_t nrows, r.U64());
  for (uint64_t i = 0; i < nrows; ++i) {
    Tuple row;
    for (uint32_t c = 0; c < ncols; ++c) {
      if (r.pos >= bytes.size()) return Status::IoError("truncated value");
      auto vt = static_cast<ValueType>(bytes[r.pos++]);
      switch (vt) {
        case ValueType::kNull:
          row.values.emplace_back();
          break;
        case ValueType::kInt: {
          DBM_ASSIGN_OR_RETURN(uint64_t bits, r.U64());
          row.values.emplace_back(static_cast<int64_t>(bits));
          break;
        }
        case ValueType::kDouble: {
          DBM_ASSIGN_OR_RETURN(uint64_t bits, r.U64());
          double d;
          std::memcpy(&d, &bits, sizeof(d));
          row.values.emplace_back(d);
          break;
        }
        case ValueType::kString: {
          DBM_ASSIGN_OR_RETURN(std::string s, r.String());
          row.values.emplace_back(std::move(s));
          break;
        }
        default:
          return Status::IoError("unknown value type tag " +
                                 std::to_string(bytes[r.pos - 1]));
      }
    }
    rel.InsertUnchecked(std::move(row));
  }
  return rel;
}

size_t Relation::PayloadBytes() const {
  size_t bytes = 0;
  for (const Tuple& row : rows_) {
    for (const Value& v : row.values) {
      switch (TypeOf(v)) {
        case ValueType::kNull: bytes += 1; break;
        case ValueType::kInt:
        case ValueType::kDouble: bytes += 9; break;
        case ValueType::kString:
          bytes += 5 + std::get<std::string>(v).size();
          break;
      }
    }
  }
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
