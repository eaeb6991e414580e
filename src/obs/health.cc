#include "obs/health.h"

#include <csignal>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"
#include "obs/table.h"

namespace dbm::obs {

// ---------------------------------------------------------------------------
// LoopHealth
// ---------------------------------------------------------------------------

LoopHealth::LoopHealth(double staleness_factor, size_t latency_capacity)
    : staleness_factor_(staleness_factor), latencies_(latency_capacity) {
  Registry& reg = Registry::Default();
  latency_gauge_ = &reg.GetGauge("fig1.loop_latency_us");
  latency_hist_ = &reg.GetHistogram("fig1.loop_latency_us.hist");
}

LoopHealth& LoopHealth::Default() {
  static LoopHealth* health = new LoopHealth();
  return *health;
}

LoopHealth::Tracker& LoopHealth::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = trackers_.find(name);
  if (it == trackers_.end()) {
    it = trackers_.emplace(name, std::make_unique<Tracker>()).first;
  }
  return *it->second;
}

std::vector<LoopHealth::Verdict> LoopHealth::Verdicts(int64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Verdict> out;
  out.reserve(trackers_.size());
  for (const auto& [name, t] : trackers_) {
    Verdict v;
    v.name = name;
    v.period_us = t->period_us.load(std::memory_order_relaxed);
    v.samples = t->samples.load(std::memory_order_relaxed);
    int64_t last = t->last_at_us.load(std::memory_order_relaxed);
    v.ever_sampled = last != INT64_MIN;
    v.age_us = v.ever_sampled ? now_us - last : -1;
    if (v.period_us > 0) {
      int64_t allowed = static_cast<int64_t>(
          staleness_factor_ * static_cast<double>(v.period_us));
      v.stale = !v.ever_sampled || v.age_us > allowed;
    }
    out.push_back(std::move(v));
  }
  return out;
}

bool LoopHealth::AllHealthy(int64_t now_us) const {
  for (const Verdict& v : Verdicts(now_us)) {
    if (v.stale) return false;
  }
  return true;
}

void LoopHealth::RecordLoopLatency(const LoopLatencyRecord& rec) {
  latencies_.Append(rec);
  latency_gauge_->Set(static_cast<double>(rec.latency_us));
  latency_hist_->Record(
      rec.latency_us < 0 ? 0 : static_cast<uint64_t>(rec.latency_us));
}

void LoopHealth::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  trackers_.clear();
  latencies_.Clear();
}

std::string HealthJson(int64_t now_us, const LoopHealth& health) {
  std::vector<LoopHealth::Verdict> verdicts = health.Verdicts(now_us);
  bool healthy = true;
  for (const LoopHealth::Verdict& v : verdicts) {
    if (v.stale) healthy = false;
  }
  std::string out = "{\"at_us\":" + std::to_string(now_us);
  out += std::string(",\"healthy\":") + (healthy ? "true" : "false");
  out += ",\"gauges\":[";
  bool first = true;
  for (const LoopHealth::Verdict& v : verdicts) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(v.name) + "\"";
    out += std::string(",\"stale\":") + (v.stale ? "true" : "false");
    out += ",\"age_us\":" + std::to_string(v.age_us);
    out += ",\"period_us\":" + std::to_string(v.period_us);
    out += ",\"samples\":" + std::to_string(v.samples) + "}";
  }
  std::vector<LoopLatencyRecord> lats = health.LoopLatencies();
  out += "],\"loop_latency\":{\"count\":" + std::to_string(lats.size());
  out += ",\"last_us\":" +
         std::to_string(lats.empty() ? 0 : lats.back().latency_us);
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

namespace {

struct FlightState {
  FlightRecorderOptions options;
  bool installed = false;
};

FlightState& State() {
  static FlightState* state = new FlightState();
  return *state;
}

struct FlightSections {
  std::mutex mu;
  std::map<std::string, std::function<std::string()>> sections;
};

FlightSections& Sections() {
  static FlightSections* sections = new FlightSections();
  return *sections;
}

// The newest samples per time series that a flight record keeps.
constexpr size_t kFlightTimeSeriesTail = 64;

void DumpInstalled() {
  // A DBM_CHECK failure aborts, and SIGABRT is also trapped: dump once.
  static std::atomic<bool> dumped{false};
  if (dumped.exchange(true)) return;
  FlightState& state = State();
  if (state.options.path.empty()) return;
  (void)DumpFlightRecord(state.options.path, state.options.now_us);
  std::fprintf(stderr, "[flight recorder: %s]\n",
               state.options.path.c_str());
}

void FatalSignalHandler(int sig) {
  // Not async-signal-safe; a best-effort post-mortem is the point.
  std::signal(sig, SIG_DFL);
  DumpInstalled();
  std::raise(sig);
}

void DumpSignalHandler(int sig) {
  (void)TriggerFlightDump();
  // std::signal semantics may be one-shot; re-arm so the operator can
  // snapshot repeatedly.
  std::signal(sig, &DumpSignalHandler);
}

}  // namespace

void InstallFlightRecorder(const FlightRecorderOptions& options) {
  FlightState& state = State();
  state.options = options;
  SetCheckFailureHandler(&DumpInstalled);
  if (options.install_signal_handlers && !state.installed) {
    std::signal(SIGSEGV, &FatalSignalHandler);
    std::signal(SIGBUS, &FatalSignalHandler);
    std::signal(SIGFPE, &FatalSignalHandler);
    std::signal(SIGILL, &FatalSignalHandler);
    std::signal(SIGABRT, &FatalSignalHandler);
#ifdef SIGUSR1
    // The on-demand snapshot rides the same install: kill -USR1 <pid>
    // dumps the flight record without ending the process.
    InstallFlightDumpSignal(SIGUSR1);
#endif
  }
  state.installed = true;
}

const std::string& FlightRecorderPath() {
  return State().options.path;
}

Status TriggerFlightDump(int64_t now_us) {
  FlightState& state = State();
  if (state.options.path.empty()) {
    return Status::Unavailable("no flight recorder installed");
  }
  return DumpFlightRecord(state.options.path,
                          now_us < 0 ? state.options.now_us : now_us);
}

void InstallFlightDumpSignal(int signum) {
  std::signal(signum, &DumpSignalHandler);
}

void RegisterFlightSection(const std::string& name,
                           std::function<std::string()> fn) {
  FlightSections& extra = Sections();
  std::lock_guard<std::mutex> lock(extra.mu);
  extra.sections[name] = std::move(fn);
}

Status DumpFlightRecord(const std::string& path, int64_t now_us) {
  std::string out = "{\"flight\":{";
  out += "\"at_us\":" + std::to_string(now_us);
  out += ",\"spans\":" + RowsJson(SpansTable());
  out += ",\"decisions\":" + RowsJson(DecisionsTable());
  out += ",\"loop_latency\":" + RowsJson(LoopLatencyTable());
  out += ",\"health\":" + HealthJson(now_us);
  out += ",\"timeseries\":" +
         TimeSeriesJson(TimeSeriesStore::Default(), kFlightTimeSeriesTail);
  {
    FlightSections& extra = Sections();
    std::lock_guard<std::mutex> lock(extra.mu);
    for (const auto& [name, fn] : extra.sections) {
      out += ",\"" + JsonEscape(name) + "\":" + fn();
    }
  }
  out += "}}";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open '" + path + "' for writing");
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return Status::OK();
}

}  // namespace dbm::obs
