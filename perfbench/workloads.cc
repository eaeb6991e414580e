#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

using namespace dbm;
using data::Tuple;
using data::Value;

namespace {

// Query variants a request picks among (scan_agg / join_agg params).
constexpr double kAmountCut[] = {100.0, 200.0, 300.0, 400.0};
constexpr int64_t kDayCut[] = {91, 182, 273, 365};
constexpr uint32_t kVariants = 4;

size_t QueryIndex(Op op) { return static_cast<size_t>(op); }

/// FNV-1a over a row's typed values, doubles included or left out.
uint64_t HashRow(const Tuple& t, bool with_doubles = true) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (const Value& v : t.values) {
    const size_t tag = v.index();
    mix(&tag, sizeof(tag));
    if (const auto* i = std::get_if<int64_t>(&v)) mix(i, sizeof(*i));
    if (const auto* d = std::get_if<double>(&v); d && with_doubles) {
      mix(d, sizeof(*d));
    }
    if (const auto* s = std::get_if<std::string>(&v)) mix(s->data(), s->size());
  }
  return h;
}

/// The splitmix64 finaliser: spreads a hash before it is summed.
uint64_t Spread(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

ResultDigest Digest(const std::vector<Tuple>& rows) {
  ResultDigest d;
  d.rows = rows.size();
  for (const Tuple& t : rows) {
    const uint64_t key = HashRow(t, /*with_doubles=*/false);
    d.exact += Spread(key);
    for (size_t j = 0; j < t.values.size(); ++j) {
      const double* x = std::get_if<double>(&t.values[j]);
      if (x == nullptr) continue;
      const double w =
          1.0 + static_cast<double>(Spread(key + j + 1) >> 11) * 0x1p-53;
      d.weighted += *x * w;
      d.magnitude += std::fabs(*x) * w;
    }
  }
  return d;
}

/// Rows and non-double values match exactly; the doubles' weighted sums
/// match to a relative 1e-10, far above the rounding that reassociating
/// the partial sums causes and far below any one row's amount.
bool SameResult(const ResultDigest& a, const ResultDigest& b) {
  const double scale = std::max({a.magnitude, b.magnitude, 1.0});
  return a.rows == b.rows && a.exact == b.exact &&
         std::fabs(a.weighted - b.weighted) <= 1e-10 * scale;
}

}  // namespace

AnalyticsBackend::AnalyticsBackend(const data::Relation* orders,
                                   const data::Relation* people,
                                   const storage::PagedRelation* paged_orders,
                                   const storage::PagedRelation* paged_people,
                                   query::WorkerPool* pool, SpanLog* spans)
    : orders_(orders),
      people_(people),
      paged_orders_(paged_orders),
      paged_people_(paged_people),
      pool_(pool),
      spans_(spans) {}

query::ParallelPlan AnalyticsBackend::Plan(Op op, uint32_t param,
                                           bool paged) const {
  auto scan = [paged](const data::Relation* mem,
                      const storage::PagedRelation* pg) {
    query::ParallelScan s;
    if (paged) {
      s.paged = pg;
    } else {
      s.mem = mem;
    }
    return s;
  };
  query::ParallelPlan plan;
  switch (op) {
    case kScanAgg:
      // orders(id, person_id, amount, day): revenue per day above a cut.
      plan.probe = scan(orders_, paged_orders_);
      plan.probe.filter =
          query::Gt(query::Col(2), query::Lit(kAmountCut[param]));
      plan.group_by = {3};
      plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                   {query::AggFunc::kSum, 2, "sum_amount"}};
      break;
    case kJoinAgg: {
      // people(id, name, age, city) ⋈ orders on person_id, per city.
      plan.probe = scan(orders_, paged_orders_);
      plan.probe.filter =
          query::Lt(query::Col(3), query::Lit(kDayCut[param]));
      query::ParallelJoinStage stage;
      stage.build = scan(people_, paged_people_);
      stage.spec = query::JoinSpec{0, 1};
      plan.joins.push_back(std::move(stage));
      plan.group_by = {3};
      plan.aggs = {{query::AggFunc::kCount, 0, "n"},
                   {query::AggFunc::kSum, 6, "sum_amount"},
                   {query::AggFunc::kMax, 2, "max_age"}};
      break;
    }
    default:
      // lookup: one person by id.
      plan.probe = scan(people_, paged_people_);
      plan.probe.filter = query::Eq(
          query::Col(0), query::Lit(static_cast<int64_t>(param)));
      break;
  }
  return plan;
}

uint32_t AnalyticsBackend::PickParam(Op op, Rng* rng) {
  if (op == kLookup) return static_cast<uint32_t>(rng->Uniform(people_->size()));
  return static_cast<uint32_t>(rng->Uniform(kVariants));
}

Result<std::vector<Tuple>> AnalyticsBackend::Run(Op op, uint32_t param,
                                                 uint64_t request) {
  const query::ParallelPlan plan = Plan(op, param, /*paged=*/true);
  query::ParallelOptions opt;
  opt.pool = pool_;
  opt.dop = op == kLookup ? 1 : pool_->size();
  std::vector<Tuple> out;
  Result<query::ParallelStats> stats = Status::Internal("not run");
  {
    SpanLog::Scope span(spans_, Layer::kQuery, request, op);
    stats = query::ExecuteParallel(plan, &out, opt);
  }
  if (!stats.ok()) return stats.status();
  QueryTotals& t = totals_[QueryIndex(op)];
  ++t.calls;
  t.result_rows += out.size();
  t.scanned_rows += op == kLookup ? people_->size()
                    : op == kScanAgg
                        ? orders_->size()
                        : orders_->size() + people_->size();
  t.batches += stats->batches;
  t.morsels += stats->morsels;
  t.steady_allocs += stats->steady_allocs;
  if (opt.dop > 1) {
    t.worker_util_sum += stats->worker_util;
    ++t.parallel_calls;
  }
  return out;
}

std::string AnalyticsBackend::Serve(Op op, uint32_t param, uint64_t request) {
  Result<std::vector<Tuple>> rows = Run(op, param, request);
  if (!rows.ok()) {
    ++op_errors_;
    return "error: " + rows.status().ToString();
  }
  outcomes_.Add({op, param, Digest(*rows)});
  return "rows=" + std::to_string(rows->size());
}

Status AnalyticsBackend::Warm() {
  for (Op op : {kScanAgg, kJoinAgg}) {
    for (uint32_t v = 0; v < kVariants; ++v) {
      DBM_RETURN_NOT_OK(Run(op, v, 0).status());
    }
  }
  DBM_RETURN_NOT_OK(Run(kLookup, 0, 0).status());
  totals_ = {};
  return Status::OK();
}

uint64_t AnalyticsBackend::Check(uint64_t* checked) const {
  std::map<std::pair<int, uint32_t>, ResultDigest> oracle;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < outcomes_.kept(); ++i) {
    const Outcome& o = outcomes_[i];
    auto key = std::make_pair(static_cast<int>(o.op), o.param);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      // The serial executor (dop 1) over the in-memory mirror.
      std::vector<Tuple> expect;
      query::ParallelOptions opt;
      opt.dop = 1;
      if (!query::ExecuteParallel(Plan(o.op, o.param, /*paged=*/false),
                                  &expect, opt)
               .ok()) {
        ++mismatches;
        continue;
      }
      it = oracle.emplace(key, Digest(expect)).first;
    }
    if (!SameResult(o.digest, it->second)) ++mismatches;
    ++*checked;
  }
  return mismatches;
}

IngestBackend::IngestBackend(Store* store, storage::PagedRelation* orders,
                             const data::Relation* base,
                             const data::Relation* templates, SpanLog* spans)
    : store_(store),
      orders_(orders),
      base_(base),
      templates_(templates),
      spans_(spans) {}

Status IngestBackend::Init() {
  row_bytes_ = storage::EncodeTuple(base_->rows().front()).size();
  for (const Tuple& t : templates_->rows()) {
    if (storage::EncodeTuple(t).size() != row_bytes_) {
      return Status::FailedPrecondition("orders rows differ in size");
    }
  }
  per_page_ = 0;
  while (true) {
    DBM_ASSIGN_OR_RETURN(std::optional<Tuple> t,
                         orders_->ReadAt(0, static_cast<uint16_t>(per_page_)));
    if (!t.has_value()) break;
    ++per_page_;
  }
  if (per_page_ == 0 ||
      orders_->pages() != (orders_->rows() + per_page_ - 1) / per_page_) {
    return Status::FailedPrecondition("pages are not uniformly filled");
  }
  acked_rows_ = orders_->rows();
  window_ = base_->size();
  return Status::OK();
}

uint32_t IngestBackend::PickParam(Op op, Rng* rng) {
  return op == kRead ? static_cast<uint32_t>(rng->Next()) : 0;
}

void IngestBackend::ReadPositions(uint32_t param, uint64_t first,
                                  uint64_t* pos) const {
  Rng rng(param);
  for (size_t i = 0; i < kRowsPerRead; ++i) {
    pos[i] = first + rng.Uniform(window_);
  }
}

Tuple IngestBackend::MirrorRow(uint64_t row) const {
  if (row < base_->size()) return base_->rows()[row];
  Tuple t = templates_->rows()[(row - base_->size()) % templates_->size()];
  t.values[0] = static_cast<int64_t>(row);
  return t;
}

Status IngestBackend::AppendBatch() {
  const uint64_t first = orders_->rows();
  batch_.clear();
  for (size_t i = 0; i < kRowsPerWrite; ++i) batch_.push_back(MirrorRow(first + i));
  for (const Tuple& t : batch_) {
    DBM_RETURN_NOT_OK(orders_->Append(t));
    ++rows_appended_;
  }
  return Status::OK();
}

std::string IngestBackend::Serve(Op op, uint32_t param, uint64_t request) {
  Status s;
  if (op == kWrite) {
    {
      SpanLog::Scope span(spans_, Layer::kAppend, request, op);
      s = AppendBatch();
    }
    if (s.ok()) {
      SpanLog::Scope span(spans_, Layer::kFlush, request, op);
      s = store_->buffer()->FlushAll();
    }
    if (s.ok() && ++writes_ % kCheckpointEvery == 0) {
      SpanLog::Scope span(spans_, Layer::kCheckpoint, request, op);
      s = store_->buffer()->CheckpointWal();
    }
    if (s.ok()) acked_rows_ = orders_->rows();
  } else {
    const uint64_t first = orders_->rows() - window_;
    uint64_t pos[kRowsPerRead];
    ReadPositions(param, first, pos);
    batch_.resize(kRowsPerRead);
    {
      SpanLog::Scope span(spans_, Layer::kRead, request, op);
      for (size_t i = 0; i < kRowsPerRead && s.ok(); ++i) {
        Result<std::optional<Tuple>> got = orders_->ReadAt(
            pos[i] / per_page_, static_cast<uint16_t>(pos[i] % per_page_));
        if (!got.ok()) {
          s = got.status();
        } else if (!got.value().has_value()) {
          s = Status::NotFound("no row at " + std::to_string(pos[i]));
        } else {
          batch_[i] = std::move(*got.value());
        }
      }
    }
    if (s.ok()) {
      uint64_t digest = 0;
      for (size_t i = 0; i < kRowsPerRead; ++i) {
        digest += Spread(HashRow(batch_[i]) ^ Spread(pos[i]));
      }
      reads_.Add({first, digest, param});
      rows_read_ += kRowsPerRead;
    }
  }
  if (!s.ok()) {
    ++op_errors_;
    return "error: " + s.ToString();
  }
  return "ok";
}

uint64_t IngestBackend::CheckReads(uint64_t* checked) const {
  uint64_t mismatches = 0;
  uint64_t pos[kRowsPerRead];
  for (size_t r = 0; r < reads_.kept(); ++r) {
    const ReadRecord& rec = reads_[r];
    ReadPositions(rec.param, rec.first, pos);
    uint64_t digest = 0;
    for (size_t i = 0; i < kRowsPerRead; ++i) {
      digest += Spread(HashRow(MirrorRow(pos[i])) ^ Spread(pos[i]));
    }
    if (digest != rec.digest) ++mismatches;
    ++*checked;
  }
  return mismatches;
}

Status IngestBackend::CrashDrill(uint64_t* recovered) {
  DBM_RETURN_NOT_OK(AppendBatch());  // never acknowledged
  const data::Schema schema = orders_->schema();
  orders_ = nullptr;
  DBM_ASSIGN_OR_RETURN(storage::PagedRelation * rel,
                       store_->CrashAndRecover("orders", schema));
  uint64_t n = 0;
  bool prefix = true;
  DBM_RETURN_NOT_OK(rel->Scan([&](const Tuple& t) {
    if (!(t == MirrorRow(n))) {
      prefix = false;
      return false;
    }
    ++n;
    return true;
  }));
  *recovered = n;
  if (!prefix) return Status::DataLoss("recovered rows are not a prefix");
  if (n < acked_rows_) {
    return Status::DataLoss("acknowledged rows lost: " + std::to_string(n) +
                            " < " + std::to_string(acked_rows_));
  }
  return Status::OK();
}

}  // namespace perfbench
