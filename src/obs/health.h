// Fig-1 loop health: staleness tracking, end-to-end loop latency, and the
// crash-time flight recorder.
//
// The adaptation loop is only trustworthy if the loop itself is watched:
// a monitor that silently stops sampling leaves the session manager
// evaluating rules against a stale world, and nothing in the loop notices
// — the constraint simply never fires again. LoopHealth tracks, per
// monitor/gauge, the last-sample simulated time against a declared
// expected period, and renders verdicts (healthy/stale) for the
// /obs/health endpoint. It also owns the end-to-end `fig1.loop_latency`
// measurement: for each enacted decision, the simulated time from the
// oldest gauge reading the rule evaluation consumed to the enactment —
// joinable to the DecisionRecord of the same firing by trace id.
//
// The flight recorder is the post-mortem half: installed once (benches do
// it in bench::Init, anchored to argv[0]'s directory), it dumps the span
// ring, decision ring, loop-latency ring (each rendered from its
// obs/table.h table), the health verdicts and the tail of every time
// series to a JSON sidecar when a DBM_CHECK fails or a fatal signal
// arrives — the last N windows of the loop's state, preserved for the
// autopsy.

#ifndef DBM_OBS_HEALTH_H_
#define DBM_OBS_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/timeseries.h"
#include "obs/tracectx.h"

namespace dbm::obs {

// ---------------------------------------------------------------------------
// Loop latency
// ---------------------------------------------------------------------------

/// One end-to-end Fig-1 loop measurement: a rule firing was enacted at
/// `at_sim_us`, and the oldest gauge input its evaluation consumed was
/// published `latency_us` earlier. POD; lives in a TraceRing. Kept
/// separate from DecisionRecord (joined by trace id) so the Chrome-trace
/// round trip stays bit-identical.
struct LoopLatencyRecord {
  TraceId trace_id;
  uint64_t span_id = 0;
  int32_t constraint_id = 0;
  int64_t at_sim_us = 0;
  int64_t latency_us = 0;
};

// ---------------------------------------------------------------------------
// LoopHealth
// ---------------------------------------------------------------------------

class LoopHealth {
 public:
  /// Stale when no sample for longer than `staleness_factor` × period.
  explicit LoopHealth(double staleness_factor = 2.0,
                      size_t latency_capacity = 1 << 10);

  /// The process-wide instance the adaptation layer records into.
  static LoopHealth& Default();

  /// Per-gauge sample tracking. Handles are stable for the LoopHealth's
  /// lifetime; resolve once, record lock-free (same discipline as
  /// registry metric handles).
  struct Tracker {
    std::atomic<int64_t> last_at_us{INT64_MIN};
    std::atomic<int64_t> period_us{0};  // 0 = watched but no expectation
    std::atomic<uint64_t> samples{0};

    void Sample(int64_t at_us) {
      last_at_us.store(at_us, std::memory_order_relaxed);
      samples.fetch_add(1, std::memory_order_relaxed);
    }
  };

  /// Finds or creates the tracker for `name` (a gauge's bus metric).
  Tracker& Get(const std::string& name);

  /// Declares the expected sampling period for `name`.
  void Expect(const std::string& name, int64_t period_us) {
    Get(name).period_us.store(period_us, std::memory_order_relaxed);
  }

  /// Convenience for call sites that did not keep the handle.
  void RecordSample(const std::string& name, int64_t at_us) {
    Get(name).Sample(at_us);
  }

  struct Verdict {
    std::string name;
    bool stale = false;    // only possible when a period was declared
    bool ever_sampled = false;
    int64_t age_us = -1;   // -1 = never sampled
    int64_t period_us = 0;
    uint64_t samples = 0;
  };

  /// All watched gauges at simulated time `now_us`, sorted by name. A
  /// gauge with a declared period is stale when it has never been sampled
  /// or its age exceeds staleness_factor × period.
  std::vector<Verdict> Verdicts(int64_t now_us) const;

  /// True when no watched gauge is stale.
  bool AllHealthy(int64_t now_us) const;

  double staleness_factor() const { return staleness_factor_; }

  // --- loop latency ---

  /// Records one enacted decision's loop latency; also mirrors into the
  /// registry ("fig1.loop_latency_us" gauge + histogram).
  void RecordLoopLatency(const LoopLatencyRecord& rec);

  std::vector<LoopLatencyRecord> LoopLatencies() const {
    return latencies_.Snapshot();
  }
  uint64_t dropped_latencies() const { return latencies_.dropped(); }

  /// Test/bench epoch boundary: forgets trackers and latency records.
  void Clear();

 private:
  double staleness_factor_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Tracker>> trackers_;
  TraceRing<LoopLatencyRecord> latencies_;
  Gauge* latency_gauge_;
  Histogram* latency_hist_;
};

/// {"at_us":…,"healthy":bool,"gauges":[verdict,…],
///  "loop_latency":{"count":N,"last_us":N}} at simulated time `now_us`:
/// the /obs/health body's value and the flight record's "health" section.
/// The loop-latency records themselves are the loop_latency table.
std::string HealthJson(int64_t now_us,
                       const LoopHealth& health = LoopHealth::Default());

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

struct FlightRecorderOptions {
  /// Sidecar path; parent directory must exist. Benches pass their
  /// argv0-anchored out_dir + "<bench>.flight.json".
  std::string path;
  /// Also trap SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT (best effort: the
  /// dump is not async-signal-safe, but a torn post-mortem beats none).
  bool install_signal_handlers = true;
  /// Simulated "now" for health verdicts at dump time, when known.
  int64_t now_us = 0;
};

/// Installs the process-wide flight recorder: registers the DBM_CHECK
/// failure hook (common/logging) and, optionally, fatal-signal handlers.
/// Calling again replaces the options.
void InstallFlightRecorder(const FlightRecorderOptions& options);

/// The installed sidecar path ("" when not installed).
const std::string& FlightRecorderPath();

/// Writes the flight record (spans, decisions, loop latencies, health
/// verdicts, the newest 64 samples of each time series, registered extra
/// sections) to `path` now. Also callable directly — the dump is valid at
/// any quiescent point, not only at a crash.
Status DumpFlightRecord(const std::string& path, int64_t now_us = 0);

/// Registers (or replaces) an extra flight-record section: at dump time
/// `fn`'s return value — which must be a complete JSON value — lands in
/// the record as `"name":<value>`. The layering hook by which higher
/// layers contribute post-mortem state without obs depending on them:
/// the fault log registers its ring here as "faults", the black box as
/// "blackbox".
void RegisterFlightSection(const std::string& name,
                           std::function<std::string()> fn);

/// On-demand dump to the *installed* recorder's path — operators
/// snapshotting a healthy process (via /obs/flight or the dump signal),
/// not only a crashing one. Unlike the crash path it is repeatable: each
/// call overwrites the sidecar with fresh state. `now_us < 0` uses the
/// installed options' now_us. Fails when no recorder is installed.
Status TriggerFlightDump(int64_t now_us = -1);

/// Installs a handler on `signum` (conventionally SIGUSR1) that triggers
/// an on-demand dump — `kill -USR1 <pid>` snapshots the flight record of
/// a live process. Best effort, same caveats as the fatal handlers.
void InstallFlightDumpSignal(int signum);

}  // namespace dbm::obs

#endif  // DBM_OBS_HEALTH_H_
