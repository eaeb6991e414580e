#include "obs/timeseries.h"

#include <algorithm>

#include "common/json.h"

namespace dbm::obs {

std::vector<TsSample> TimeSeries::Window(int64_t from_us) const {
  std::vector<TsSample> all = Snapshot();
  std::vector<TsSample> out;
  out.reserve(all.size());
  for (const TsSample& s : all) {
    if (s.at_us >= from_us) out.push_back(s);
  }
  return out;
}

double RatePerSecond(const std::vector<TsSample>& samples) {
  if (samples.size() < 2) return 0;
  const TsSample& first = samples.front();
  const TsSample& last = samples.back();
  int64_t dt_us = last.at_us - first.at_us;
  if (dt_us <= 0) return 0;
  return (last.value - first.value) * 1e6 / static_cast<double>(dt_us);
}

double Ewma(const std::vector<TsSample>& samples, double alpha) {
  if (samples.empty()) return 0;
  double v = samples.front().value;
  for (size_t i = 1; i < samples.size(); ++i) {
    v = alpha * samples[i].value + (1.0 - alpha) * v;
  }
  return v;
}

double SampleQuantile(std::vector<TsSample> samples, double q) {
  if (samples.empty()) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end(),
                   [](const TsSample& a, const TsSample& b) {
                     return a.value < b.value;
                   });
  return samples[rank].value;
}

double SampleMean(const std::vector<TsSample>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const TsSample& s : samples) sum += s.value;
  return sum / static_cast<double>(samples.size());
}

// ---------------------------------------------------------------------------
// HistogramWindow
// ---------------------------------------------------------------------------

void HistogramWindow::Push(int64_t at_us, const Histogram& h) {
  Snap snap;
  snap.at_us = at_us;
  snap.buckets = h.BucketCounts();
  snap.count = h.count();
  snaps_.push_back(std::move(snap));
  while (snaps_.size() > max_snapshots_) snaps_.pop_front();
}

const HistogramWindow::Snap* HistogramWindow::BaseFor(int64_t from_us) const {
  const Snap* base = nullptr;
  for (const Snap& s : snaps_) {
    if (s.at_us < from_us) base = &s;
  }
  return base;
}

uint64_t HistogramWindow::WindowCount(int64_t from_us) const {
  if (snaps_.empty()) return 0;
  const Snap& newest = snaps_.back();
  const Snap* base = BaseFor(from_us);
  uint64_t base_count = base == nullptr ? 0 : base->count;
  return newest.count > base_count ? newest.count - base_count : 0;
}

double HistogramWindow::WindowQuantile(int64_t from_us, double q) const {
  if (snaps_.empty()) return 0;
  const Snap& newest = snaps_.back();
  const Snap* base = BaseFor(from_us);
  uint64_t total = WindowCount(from_us);
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the q-th sample among the window's samples, then the same
  // within-bucket linear interpolation as Histogram::Quantile (without
  // the min/max clamp: per-window extrema are not retained).
  double rank = q * static_cast<double>(total - 1);
  double cumulative = 0;
  for (size_t b = 0; b < newest.buckets.size(); ++b) {
    uint64_t in_bucket = newest.buckets[b];
    if (base != nullptr && b < base->buckets.size()) {
      in_bucket -= base->buckets[b];
    }
    if (in_bucket == 0) continue;
    double next = cumulative + static_cast<double>(in_bucket);
    if (rank < next) {
      double lo = static_cast<double>(Histogram::BucketLowerBound(b));
      double hi = b == 0 ? 0.0 : lo * 2.0;
      double frac = (rank - cumulative) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    cumulative = next;
  }
  // rank beyond the last populated bucket (only via rounding): upper
  // bound of the top populated bucket.
  for (size_t b = newest.buckets.size(); b-- > 0;) {
    uint64_t in_bucket = newest.buckets[b];
    if (base != nullptr && b < base->buckets.size()) {
      in_bucket -= base->buckets[b];
    }
    if (in_bucket > 0) {
      double lo = static_cast<double>(Histogram::BucketLowerBound(b));
      return b == 0 ? 0.0 : lo * 2.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// TimeSeriesStore
// ---------------------------------------------------------------------------

TimeSeriesStore& TimeSeriesStore::Default() {
  static TimeSeriesStore* store = new TimeSeriesStore();
  return *store;
}

TimeSeries& TimeSeriesStore::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(name,
                      std::make_unique<TimeSeries>(name, default_capacity_))
             .first;
  }
  return *it->second;
}

const TimeSeries* TimeSeriesStore::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

std::vector<const TimeSeries*> TimeSeriesStore::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const TimeSeries*> out;
  out.reserve(series_.size());
  for (const auto& [_, ts] : series_) out.push_back(ts.get());
  return out;
}

void TimeSeriesStore::CollectRegistry(const Registry& registry,
                                      int64_t now_us) {
  for (const MetricSnapshot& m : registry.Snapshot()) {
    double v = m.kind == MetricKind::kHistogram
                   ? static_cast<double>(m.count)
                   : m.value;
    Get(m.name).Record(now_us, v);
  }
}

void TimeSeriesStore::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, series] : series_) series->Reset();
}

size_t TimeSeriesStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::string TimeSeriesJson(const TimeSeriesStore& store, size_t tail) {
  std::string out = "[";
  bool first = true;
  for (const TimeSeries* ts : store.All()) {
    std::vector<TsSample> samples = ts->Snapshot();
    size_t start = samples.size() > tail ? samples.size() - tail : 0;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(ts->name()) + "\"";
    out += ",\"total\":" + std::to_string(ts->total());
    out += ",\"samples\":[";
    for (size_t i = start; i < samples.size(); ++i) {
      if (i > start) out += ",";
      out += "[" + std::to_string(samples[i].at_us) + "," +
             JsonNumber(samples[i].value) + "]";
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace dbm::obs
