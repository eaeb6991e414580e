// The monitors-to-gauges observability substrate.
//
// The paper's adaptation story rests on monitors and gauges feeding a
// session manager (Fig 1); DBOS and TabulaROSA push the same idea further:
// *all* system state should be observable — and queryable — through one
// substrate. This registry is that substrate for the reproduction itself:
// every layer (ORB, query executor, buffer pool, session manager, Patia)
// records into named counters, gauges and cycle histograms here, and the
// `metrics` table (obs/table.h) exposes a snapshot as a relation so the
// gauges can be queried with our own query engine (/obs/query).
//
// Hot-path discipline: metric handles are resolved from names ONCE, at
// registration (construction) time, behind a mutex; recording through a
// handle is lock-free — relaxed atomics on cache-line-sharded cells — and
// never touches a string.

#ifndef DBM_OBS_METRICS_H_
#define DBM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dbm::obs {

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind k);

/// Monotonic event count. Adds are relaxed fetch-adds on a per-thread
/// shard (no CAS, no false sharing); value() sums the shards.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  /// Threads get a stable shard index at first use.
  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local const size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }
  std::array<Shard, kShards> shards_{};
};

/// Last-written level (the Fig 1 "gauge" role: an aggregated reading the
/// session manager evaluates constraints against).
class Gauge {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  void Add(double d) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + d),
        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of 0.0
};

/// Latency/size distribution over uint64 samples (cycles, microseconds,
/// bytes) in power-of-two buckets: bucket b holds samples whose bit width
/// is b, i.e. [2^(b-1), 2^b). Recording is three relaxed fetch-adds plus
/// two relaxed loads on the warm path (min/max already covering v).
class Histogram {
 public:
  /// Bucket 0 holds zero samples; bucket b≥1 holds [2^(b-1), 2^b).
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v) {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    if (v < min_.load(std::memory_order_relaxed)) UpdateMin(v);
    if (v > max_.load(std::memory_order_relaxed)) UpdateMax(v);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  uint64_t min() const {
    uint64_t m = min_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Approximate quantile (q in [0,1]) by linear interpolation within the
  /// covering bucket, clamped to the observed [min, max].
  double Quantile(double q) const;

  /// Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  std::vector<uint64_t> BucketCounts() const {
    std::vector<uint64_t> out(kBuckets);
    for (size_t i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  void Reset();

 private:
  void UpdateMin(uint64_t v) {
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(uint64_t v) {
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// One metric, frozen at snapshot time. Counters fill value only; gauges
/// fill value; histograms fill count/sum/mean/min/max/quantiles/buckets
/// and mirror count into value.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
  uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  std::vector<uint64_t> buckets;  // histogram only; kBuckets log2 buckets
};

/// Name → handle registry. Naming convention (docs/OBSERVABILITY.md):
/// dotted lower-case path "layer.component.metric", e.g.
/// "os.orb.hop_cycles", "storage.buffer.hits", "patia.atom.Page1.html.
/// variant.videosmall.ram". Handles stay valid for the registry's
/// lifetime; ZeroAll() clears values without invalidating handles.
class Registry {
 public:
  /// The process-wide registry every built-in instrumentation point uses.
  static Registry& Default();

  /// Finds or creates. Registration takes a mutex; do it once, keep the
  /// handle (constructor or function-local static), record through it.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// All metrics, sorted by name (counters, gauges and histograms share
  /// one namespace in the output).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Resets every metric to zero. Handles remain valid — this is the
  /// test/bench epoch boundary, not a teardown.
  void ZeroAll();

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dbm::obs

#endif  // DBM_OBS_METRICS_H_
