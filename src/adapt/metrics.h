// Monitors, gauges and the metric bus (left half of Fig 1).
//
// Monitors sample raw environmental data (device load, link bandwidth,
// battery). Gauges aggregate raw monitor output "for more lightweight
// processing" (paper §3) — EWMA or sliding windows — and publish to the
// metric bus, the snapshot of the world the session manager evaluates
// constraints against. All three are themselves components, so the
// adaptation machinery can be reconfigured like everything else.
//
// Bookkeeping is a thin adapter over the obs registry (src/obs): each
// monitor's sample count and gauge's publish count is a registry counter
// ("adapt.monitor.<name>.samples" / "adapt.gauge.<name>.publishes"), and
// every bus value is mirrored into the registry gauge "bus.<metric>" —
// so the whole Fig 1 blackboard shows up in the `metrics` table
// (obs/table.h, served at /obs/query) and the bench sidecars without any
// extra plumbing.

#ifndef DBM_ADAPT_METRICS_H_
#define DBM_ADAPT_METRICS_H_

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "common/sim_clock.h"
#include "component/component.h"
#include "obs/blackbox/record.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace dbm::adapt {

/// Metric identity, e.g. "laptop.processor-util" or "net.bandwidth".
using MetricName = std::string;

/// The blackboard of current aggregated metric values.
///
/// Each metric has a Channel whose registry mirror ("bus.<metric>" gauge)
/// and retained time series are resolved exactly once, at channel
/// creation. Publishers that keep the Channel* (gauges cache it on first
/// sample) publish with no string concatenation, no map lookup and no
/// allocation — the steady-state Fig-1 loop is a handful of stores.
class MetricBus {
 public:
  struct Channel {
    double value = 0;
    SimTime at = 0;
    uint64_t publishes = 0;
    obs::Gauge* mirror = nullptr;        // registry gauge "bus.<metric>"
    obs::TimeSeries* series = nullptr;   // retained history "bus.<metric>"
    /// The map key (stable: map nodes never move) — what the black-box
    /// tap stamps on durable metric records.
    const MetricName* name = nullptr;
  };

  /// Finds or creates the channel for `metric`, resolving its mirror
  /// gauge and time series. The pointer is stable for the bus's lifetime
  /// (map nodes do not move); resolve once, keep it.
  Channel* GetChannel(const MetricName& metric) {
    auto it = values_.find(metric);
    if (it == values_.end()) {
      it = values_.emplace(metric, Channel{}).first;
      const std::string mirrored = "bus." + metric;
      it->second.mirror = &obs::Registry::Default().GetGauge(mirrored);
      it->second.series = &obs::TimeSeriesStore::Default().Get(mirrored);
      it->second.name = &it->first;
    }
    return &it->second;
  }

  /// Allocation-free steady-state publish through a cached channel.
  void Publish(Channel* channel, double value, SimTime at) {
    channel->value = value;
    channel->at = at;
    ++channel->publishes;
    channel->mirror->Set(value);
    channel->series->Record(at, value);
    if (obs::blackbox::TelemetrySinkInstalled()) {
      // The durable tap. Guarded so the no-black-box cost stays one
      // relaxed load; the sink applies 1-in-N sampling and the record
      // fill is stack-only, keeping the publish path allocation-free.
      obs::blackbox::TelemetryRecord rec;
      rec.kind = static_cast<uint8_t>(obs::blackbox::RecordKind::kMetric);
      rec.trace_id = obs::CurrentContext().trace_id;
      rec.at_us = at;
      rec.a = value;
      rec.b = static_cast<double>(channel->publishes);
      if (channel->name != nullptr) rec.SetName(*channel->name);
      obs::blackbox::Tap(rec);
    }
  }

  void Publish(const MetricName& metric, double value, SimTime at) {
    Publish(GetChannel(metric), value, at);
  }

  Result<double> Get(const MetricName& metric) const {
    auto it = values_.find(metric);
    if (it == values_.end()) {
      return Status::NotFound("no metric '" + metric + "' published");
    }
    return it->second.value;
  }

  double GetOr(const MetricName& metric, double fallback) const {
    auto it = values_.find(metric);
    return it == values_.end() ? fallback : it->second.value;
  }

  Result<SimTime> Age(const MetricName& metric, SimTime now) const {
    auto it = values_.find(metric);
    if (it == values_.end()) {
      return Status::NotFound("no metric '" + metric + "' published");
    }
    return now - it->second.at;
  }

  size_t size() const { return values_.size(); }
  const std::map<MetricName, double> SnapshotValues() const {
    std::map<MetricName, double> out;
    for (const auto& [k, v] : values_) out[k] = v.value;
    return out;
  }

 private:
  std::map<MetricName, Channel> values_;
};

/// A monitor component: produces raw samples of one metric.
class Monitor : public component::Component {
 public:
  Monitor(std::string name, MetricName metric)
      : Component(std::move(name), "monitor"), metric_(std::move(metric)) {
    samples_ = &obs::Registry::Default().GetCounter(
        "adapt.monitor." + this->name() + ".samples");
    samples_base_ = samples_->value();
  }

  const MetricName& metric() const { return metric_; }

  /// One raw sample of the monitored quantity.
  virtual double Read() = 0;

  /// Samples taken by THIS instance (the registry counter is shared by
  /// same-named instances; the construction-time baseline isolates us).
  uint64_t sample_count() const { return samples_->value() - samples_base_; }

 protected:
  void CountSample() { samples_->Add(1); }

 private:
  MetricName metric_;
  obs::Counter* samples_;
  uint64_t samples_base_ = 0;
};

/// Monitor backed by a sampling function (the usual adapter onto the
/// environment simulator).
class CallbackMonitor : public Monitor {
 public:
  CallbackMonitor(std::string name, MetricName metric,
                  std::function<double()> fn)
      : Monitor(std::move(name), std::move(metric)), fn_(std::move(fn)) {}

  double Read() override {
    CountSample();
    return fn_();
  }

 private:
  std::function<double()> fn_;
};

/// Aggregation policies for gauges.
enum class GaugeKind : uint8_t {
  kLast,        // pass-through (the "no gauge" ablation baseline)
  kEwma,        // exponentially weighted moving average
  kWindowMean,  // mean over the last N samples
  kWindowMax,   // max over the last N samples (for peak detection)
};

const char* GaugeKindName(GaugeKind k);

/// A gauge component: pulls its monitor port, aggregates, publishes.
class Gauge : public component::Component {
 public:
  Gauge(std::string name, GaugeKind kind, MetricBus* bus,
        double ewma_alpha = 0.3, size_t window = 8)
      : Component(std::move(name), "gauge"),
        kind_(kind),
        bus_(bus),
        alpha_(ewma_alpha),
        window_(window) {
    DeclarePort("source", "monitor");
    publishes_ = &obs::Registry::Default().GetCounter(
        "adapt.gauge." + this->name() + ".publishes");
    publishes_base_ = publishes_->value();
  }

  /// Samples the monitor, folds into the aggregate, publishes at time `t`.
  Status Sample(SimTime t);

  double value() const { return value_; }
  GaugeKind kind() const { return kind_; }
  uint64_t publish_count() const {
    return publishes_->value() - publishes_base_;
  }

 private:
  GaugeKind kind_;
  MetricBus* bus_;
  double alpha_;
  size_t window_;
  std::deque<double> samples_;
  double value_ = 0.0;
  bool primed_ = false;
  obs::Counter* publishes_;
  uint64_t publishes_base_ = 0;
  /// Cached on the first Sample (the metric name comes from the monitor,
  /// which binds to the "source" port after construction). Steady-state
  /// publishes then do no string work, no map lookup and no allocation.
  MetricBus::Channel* channel_ = nullptr;
  obs::LoopHealth::Tracker* health_ = nullptr;
};

}  // namespace dbm::adapt

#endif  // DBM_ADAPT_METRICS_H_
