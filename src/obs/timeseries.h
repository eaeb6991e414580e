// Bounded per-metric time series: the "a gauge is a trend, not a point
// read" layer.
//
// PR 1's registry answers "what is the value now"; this module retains
// *recent history* so derived windowed gauges — rate per simulated
// second, EWMA, windowed percentiles — can be computed and published back
// onto the metric bus (adapt/derived.h) for Table-2 rules to trigger on
// trends. Each series is a fixed-capacity wrap-around ring with a
// lock-free writer path, in the same spirit as the span rings
// (obs/tracectx.h) but keeping the newest samples instead of the oldest:
// retention is about the recent window, head-keeping is about coherent
// trace prefixes.
//
// Writer: one fetch_add to claim a slot, plain stores, one release store
// to publish. Readers (Snapshot/Window) validate a per-slot sequence
// number before and after copying, so a slot being concurrently
// overwritten is skipped rather than observed torn. In this repo the
// simulation itself is single-threaded; the lock-free discipline is for
// the same reason as the span rings — observability must never perturb
// what it observes.

#ifndef DBM_OBS_TIMESERIES_H_
#define DBM_OBS_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dbm::obs {

/// One retained sample: simulated time and value. POD so ring publication
/// cannot tear a heap pointer.
struct TsSample {
  int64_t at_us = 0;
  double value = 0;
};

/// Fixed-capacity wrap-around ring of TsSamples for one metric.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name, size_t capacity = 256)
      : name_(std::move(name)),
        capacity_(capacity == 0 ? 1 : capacity),
        slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

  /// Lock-free, wait-free append; overwrites the oldest sample when full.
  void Record(int64_t at_us, double value) {
    uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[idx % capacity_];
    s.seq.store(0, std::memory_order_relaxed);  // invalidate while writing
    s.rec.at_us = at_us;
    s.rec.value = value;
    s.seq.store(idx + 1, std::memory_order_release);
  }

  /// Retained samples, oldest → newest. Slots being concurrently
  /// overwritten are skipped, never observed torn.
  std::vector<TsSample> Snapshot() const {
    uint64_t n = cursor_.load(std::memory_order_acquire);
    uint64_t start = n > capacity_ ? n - capacity_ : 0;
    std::vector<TsSample> out;
    out.reserve(static_cast<size_t>(n - start));
    for (uint64_t i = start; i < n; ++i) {
      const Slot& s = slots_[i % capacity_];
      if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
      TsSample r = s.rec;
      if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
      out.push_back(r);
    }
    return out;
  }

  /// Retained samples with at_us >= from_us, oldest → newest.
  std::vector<TsSample> Window(int64_t from_us) const;

  /// Forgets all retained samples (handles stay valid). For sweeps that
  /// restart simulated time at zero between steps — stale samples from a
  /// previous step would otherwise sit "in the future" of the new run and
  /// pollute every window. Callers must quiesce writers first; the reset
  /// is not safe against a concurrent Record.
  void Reset() {
    for (size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(0, std::memory_order_relaxed);
    }
    cursor_.store(0, std::memory_order_release);
  }

  const std::string& name() const { return name_; }
  size_t capacity() const { return capacity_; }
  /// Samples ever recorded (retained = min(total, capacity)).
  uint64_t total() const { return cursor_.load(std::memory_order_relaxed); }
  uint64_t overwritten() const {
    uint64_t n = total();
    return n > capacity_ ? n - capacity_ : 0;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = empty/being written, else idx+1
    TsSample rec{};
  };
  std::string name_;
  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> cursor_{0};
};

// ---------------------------------------------------------------------------
// Window statistics (pure functions over sample vectors)
// ---------------------------------------------------------------------------

/// Rate of change per simulated second across `samples` (for cumulative
/// counters): (last - first) / Δt. Zero when fewer than two samples or no
/// time elapsed.
double RatePerSecond(const std::vector<TsSample>& samples);

/// EWMA fold in sample order: v = alpha*x + (1-alpha)*v, seeded with the
/// first sample. Zero when empty.
double Ewma(const std::vector<TsSample>& samples, double alpha);

/// Exact quantile (q in [0,1]) of the sample *values* by nth_element.
/// Zero when empty.
double SampleQuantile(std::vector<TsSample> samples, double q);

/// Mean of the sample values. Zero when empty.
double SampleMean(const std::vector<TsSample>& samples);

// ---------------------------------------------------------------------------
// Windowed histogram percentiles
// ---------------------------------------------------------------------------

/// A ring of cumulative bucket snapshots of one obs::Histogram, so a
/// *windowed* quantile can be computed from the bucket-count difference
/// between the newest snapshot and the oldest one still inside the
/// window — same log2-bucket interpolation as Histogram::Quantile, but
/// over only the window's samples. Owned and advanced by one thread (the
/// derived-gauge publisher on the simulation thread); not thread-safe.
class HistogramWindow {
 public:
  explicit HistogramWindow(size_t max_snapshots = 64)
      : max_snapshots_(max_snapshots < 2 ? 2 : max_snapshots) {}

  /// Records the histogram's current cumulative state at `at_us`.
  void Push(int64_t at_us, const Histogram& h);

  /// Quantile over samples recorded between the oldest snapshot with
  /// at_us >= from_us (exclusive base) and the newest. Zero when the
  /// window holds no samples.
  double WindowQuantile(int64_t from_us, double q) const;

  /// Samples recorded inside the same window.
  uint64_t WindowCount(int64_t from_us) const;

  size_t snapshots() const { return snaps_.size(); }

 private:
  struct Snap {
    int64_t at_us = 0;
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
  };
  /// Base snapshot for a window starting at from_us: the newest snapshot
  /// with at_us < from_us (or the synthetic empty state).
  const Snap* BaseFor(int64_t from_us) const;

  size_t max_snapshots_;
  std::deque<Snap> snaps_;
};

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Name → TimeSeries registry. Handles are stable for the store's
/// lifetime (resolve once, record lock-free), mirroring obs::Registry.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(size_t default_capacity = 256)
      : default_capacity_(default_capacity) {}

  /// The process-wide store the metric bus and derived publishers use.
  static TimeSeriesStore& Default();

  /// Finds or creates. Creation takes a mutex; keep the handle.
  TimeSeries& Get(const std::string& name);
  /// Lookup without creation; nullptr when absent.
  const TimeSeries* Find(const std::string& name) const;

  /// All series, sorted by name.
  std::vector<const TimeSeries*> All() const;

  /// Appends the current value of every registry counter and gauge (and
  /// every histogram's cumulative count) to its series at `now_us` — the
  /// periodic "retain everything" sweep.
  void CollectRegistry(const Registry& registry, int64_t now_us);

  /// Resets every series (see TimeSeries::Reset). Handles stay valid;
  /// writers must be quiescent.
  void ResetAll();

  size_t size() const;

 private:
  size_t default_capacity_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

/// [{"name":…,"total":N,"samples":[[at_us,value],…]},…] with at most the
/// newest `tail` samples per series: the /obs/timeseries body's value and
/// the flight record's "timeseries" section.
std::string TimeSeriesJson(const TimeSeriesStore& store, size_t tail);

}  // namespace dbm::obs

#endif  // DBM_OBS_TIMESERIES_H_
