// The data planes behind the "/db" atom, one per workload, and the
// correctness checks each runs after its measured phase.
//
//   analytics  query::ExecuteParallel over durable PagedRelations whose
//              pages all fit the pool (scan_agg, join_agg, lookup).
//   ingest     durable appends acknowledged by FlushAll, a WAL checkpoint
//              every 64th write, and point reads through ReadAt over the
//              newest rows, a window as large as the initial load and so
//              several times larger than the pool however far the
//              relation has grown.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "query/parallel.h"
#include "spans.h"
#include "store.h"
#include "world.h"

namespace perfbench {

/// Check records in a buffer allocated and written at set-up, so the
/// memory a run holds does not grow with the requests it serves. Records
/// past the capacity are counted, not kept.
template <typename T>
class CheckLog {
 public:
  explicit CheckLog(size_t capacity) : records_(capacity) {}

  void Add(const T& record) {
    if (n_ < records_.size()) records_[n_] = record;
    ++n_;
  }
  size_t kept() const {
    return static_cast<size_t>(std::min<uint64_t>(n_, records_.size()));
  }
  uint64_t dropped() const { return n_ - kept(); }
  const T& operator[](size_t i) const { return records_[i]; }

 private:
  std::vector<T> records_;
  uint64_t n_ = 0;
};

/// A query result reduced to what the check compares. Parallel partial
/// sums reassociate floating-point addition, so doubles are folded into a
/// weighted sum compared to a relative tolerance; everything else must
/// match exactly.
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t exact = 0;  // order-insensitive hash of the non-double values
  // Σ double × a weight in [1, 2) drawn from its row's other values and
  // its column, and Σ |double| × the same weight (the tolerance's scale).
  double weighted = 0;
  double magnitude = 0;
};

/// What the query engine returned, summed per op.
struct QueryTotals {
  uint64_t calls = 0;
  uint64_t result_rows = 0;
  uint64_t scanned_rows = 0;  // input rows the plans read
  uint64_t batches = 0;
  uint64_t morsels = 0;
  uint64_t steady_allocs = 0;
  double worker_util_sum = 0;  // percent, over parallel calls
  uint64_t parallel_calls = 0;
};

class AnalyticsBackend : public Backend {
 public:
  AnalyticsBackend(const dbm::data::Relation* orders,
                   const dbm::data::Relation* people,
                   const dbm::storage::PagedRelation* paged_orders,
                   const dbm::storage::PagedRelation* paged_people,
                   dbm::query::WorkerPool* pool, SpanLog* spans);

  uint32_t PickParam(Op op, dbm::Rng* rng) override;
  std::string Serve(Op op, uint32_t param, uint64_t request) override;

  /// Runs every query variant once (the warm-up), discarding results.
  dbm::Status Warm();

  /// Compares every recorded result digest with that of the serial
  /// executor over the in-memory mirror. Returns the number of mismatches.
  uint64_t Check(uint64_t* checked) const;

  uint64_t op_errors() const { return op_errors_; }
  uint64_t unchecked() const { return outcomes_.dropped(); }
  const std::array<QueryTotals, 3>& totals() const { return totals_; }

 private:
  // About 40 times the results a 30 s run returns.
  static constexpr size_t kOutcomeCapacity = size_t{1} << 14;

  struct Outcome {
    Op op = kScanAgg;
    uint32_t param = 0;
    ResultDigest digest;
  };

  dbm::query::ParallelPlan Plan(Op op, uint32_t param, bool paged) const;
  dbm::Result<std::vector<dbm::data::Tuple>> Run(Op op, uint32_t param,
                                                 uint64_t request);

  const dbm::data::Relation* orders_;
  const dbm::data::Relation* people_;
  const dbm::storage::PagedRelation* paged_orders_;
  const dbm::storage::PagedRelation* paged_people_;
  dbm::query::WorkerPool* pool_;
  SpanLog* spans_;
  CheckLog<Outcome> outcomes_{kOutcomeCapacity};
  std::array<QueryTotals, 3> totals_{};
  uint64_t op_errors_ = 0;
};

class IngestBackend : public Backend {
 public:
  static constexpr size_t kRowsPerWrite = 256;
  static constexpr size_t kRowsPerRead = 32;
  static constexpr uint64_t kCheckpointEvery = 64;

  /// `base` is what the store was loaded with; appended rows cycle
  /// through `templates` with their id set to the row's position.
  IngestBackend(Store* store, dbm::storage::PagedRelation* orders,
                const dbm::data::Relation* base,
                const dbm::data::Relation* templates, SpanLog* spans);

  /// Learns the fixed rows-per-page layout point reads address by.
  dbm::Status Init();

  uint32_t PickParam(Op op, dbm::Rng* rng) override;
  std::string Serve(Op op, uint32_t param, uint64_t request) override;

  /// Point-read results against the mirror; returns mismatches.
  uint64_t CheckReads(uint64_t* checked) const;

  /// Appends one more batch without acknowledging it, then the store's
  /// crash drill. Fails unless every acknowledged row comes back as an
  /// exact prefix; *recovered gets the recovered row count.
  dbm::Status CrashDrill(uint64_t* recovered);

  uint64_t op_errors() const { return op_errors_; }
  uint64_t writes() const { return writes_; }
  uint64_t rows_appended() const { return rows_appended_; }
  uint64_t rows_read() const { return rows_read_; }
  uint64_t unchecked() const { return reads_.dropped(); }
  size_t row_bytes() const { return row_bytes_; }
  uint64_t rows() const { return orders_->rows(); }
  uint64_t pages() const { return orders_->pages(); }

 private:
  // About 15 times the point reads a 30 s run makes.
  static constexpr size_t kReadCapacity = size_t{1} << 17;

  /// One point read: enough to regenerate its positions and compare what
  /// it returned with the mirror.
  struct ReadRecord {
    uint64_t first = 0;  // start of the read window
    uint64_t digest = 0;
    uint32_t param = 0;
  };

  dbm::data::Tuple MirrorRow(uint64_t row) const;
  void ReadPositions(uint32_t param, uint64_t first, uint64_t* pos) const;
  dbm::Status AppendBatch();

  Store* store_;
  dbm::storage::PagedRelation* orders_;
  const dbm::data::Relation* base_;
  const dbm::data::Relation* templates_;
  SpanLog* spans_;
  size_t per_page_ = 0;
  size_t row_bytes_ = 0;
  uint64_t window_ = 0;  // rows a point read spreads over: the newest ones
  uint64_t writes_ = 0;
  uint64_t acked_rows_ = 0;
  uint64_t rows_appended_ = 0;
  uint64_t rows_read_ = 0;
  uint64_t op_errors_ = 0;
  std::vector<dbm::data::Tuple> batch_;
  CheckLog<ReadRecord> reads_{kReadCapacity};
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
