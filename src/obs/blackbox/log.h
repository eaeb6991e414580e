// The TelemetryLog: the durable half of the black box.
//
// Hot paths publish TelemetryRecords through the sink tap (record.h);
// the log accepts them into a wait-free bounded ring (Vyukov-style
// sequence-stamped cells, many producers, one consumer) and a dedicated
// flusher thread drains the ring into the shared segment log
// (fault/segment_log.h), which owns framing, rotation, fsync and the
// crash point; this class adds the ring, sampling and retention. The
// append path allocates nothing and never blocks: when the ring is full
// the record is counted dropped (blackbox.dropped) and the caller
// continues — telemetry durability must never stall the machine it
// observes.
//
// Durability is tunable per run with FsyncPolicy: kNever trusts the OS,
// kInterval fsyncs every fsync_interval_bytes, kRotate fsyncs each
// segment as it is sealed (kInterval too, when the segment holds frames
// no fsync covered). The stats expose the *fsync barrier*
// (stats().durable): the record count guaranteed readable after a crash.
// Under kNever it stops below the first segment sealed un-fsynced.
// Everything between the barrier and the ring is the "un-fsynced tail"
// the acceptance criteria allow a crash to lose. A failed fsync kills
// the log and leaves the barrier where it was.
//
// Crash-consistency is exercised through the fault injector: the flusher
// consults the fault point "obs.blackbox.write" once per frame, and a
// crash verdict writes a deliberately torn frame (half the bytes) then
// kills the flusher — byte-for-byte what a kill -9 mid-append leaves on
// disk. The TelemetryReader truncates at that frame and keeps the
// prefix; reopening the directory cuts the torn tail on disk as well and
// appends after the surviving history.

#ifndef DBM_OBS_BLACKBOX_LOG_H_
#define DBM_OBS_BLACKBOX_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/blackbox/record.h"
#include "obs/metrics.h"

namespace dbm::fault {
class SegmentLog;
}  // namespace dbm::fault

namespace dbm::obs::blackbox {

enum class FsyncPolicy : uint8_t {
  kNever,     // no explicit fsync; the OS flushes when it pleases
  kInterval,  // fsync every fsync_interval_bytes, and at a seal that needs it
  kRotate,    // fsync a segment once, as it is sealed at rotation
};

const char* FsyncPolicyName(FsyncPolicy policy);

struct TelemetryLogOptions {
  /// Segment directory (created if missing). The repo convention names
  /// it "<something>.telem" so CI can collect surviving segments as
  /// artifacts next to the *.flight.json dumps.
  std::string dir;
  /// Rotation threshold: a segment is sealed before a frame would push
  /// it past this size.
  size_t segment_bytes = 1 << 20;
  /// Retention: live segments beyond this count are deleted oldest-first.
  size_t max_segments = 8;
  /// Ring capacity in records; rounded up to a power of two.
  size_t ring_capacity = 1 << 13;
  FsyncPolicy fsync = FsyncPolicy::kRotate;
  uint64_t fsync_interval_bytes = 64 * 1024;
  /// 1-in-N sampling for kMetric records (the metric bus publishes far
  /// more often than anything else); 1 keeps every publish. Other kinds
  /// are never sampled out.
  uint32_t metric_sample_every = 1;
  /// Start the dedicated flusher thread. Tests and single-threaded
  /// drivers pass false and drain deterministically with Poll().
  bool start_flusher = true;
  /// Host-time period between flusher drains.
  int64_t flush_period_ms = 2;
};

struct TelemetryLogStats {
  uint64_t appended = 0;     // accepted into the ring
  uint64_t dropped = 0;      // refused: ring full
  uint64_t sampled_out = 0;  // kMetric records the sampler skipped
  uint64_t flushed = 0;      // written to the OS (frames on disk)
  uint64_t durable = 0;      // the fsync barrier: crash-safe records
  uint64_t bytes = 0;        // frame bytes written
  uint64_t segments_created = 0;
  uint64_t segments_live = 0;
  uint64_t fsyncs = 0;
  int64_t flush_lag_us = 0;  // enqueue-to-disk lag of the last drain
  uint64_t backlog = 0;      // records waiting in the ring
  bool dead = false;         // the flusher hit a crash fault / IO error
};

class TelemetryLog : public TelemetrySink {
 public:
  /// Creates the directory, opens a segment and (by default) starts the
  /// flusher. A directory an earlier process wrote keeps its trusted
  /// history: the torn tail is cut and new segments number after it.
  static Result<std::unique_ptr<TelemetryLog>> Open(
      TelemetryLogOptions options);
  ~TelemetryLog() override;

  TelemetryLog(const TelemetryLog&) = delete;
  TelemetryLog& operator=(const TelemetryLog&) = delete;

  /// Wait-free, allocation-free append (the TelemetrySink interface —
  /// what the tap calls). Full ring → counted dropped, never blocks.
  void Consume(const TelemetryRecord& rec) override { (void)Append(rec); }

  /// Same as Consume; returns false when sampled out or dropped.
  bool Append(const TelemetryRecord& rec);

  /// Installs this log as the process-wide telemetry sink and
  /// contributes the "blackbox" flight-recorder section. Quiescent
  /// points only (see SetTelemetrySink).
  void Install();
  void Uninstall();
  /// The currently installed log (nullptr when none) — how Patia's
  /// degradation check and the /obs/history endpoint find the black box
  /// without plumbing a handle through every layer.
  static TelemetryLog* Installed();

  /// Drains the ring on the calling thread; returns records written.
  /// The deterministic alternative to the flusher thread.
  size_t Poll();

  /// Drain + fsync: everything appended before the call is durable when
  /// it returns (the "fsync barrier" tests assert against). IoError when
  /// the fsync fails, Unavailable once the log is dead.
  Status Flush();

  /// Stops the flusher thread (if any) and performs a final Flush.
  void Stop();

  TelemetryLogStats stats() const;
  /// Ring occupancy in [0,1] — what Patia's degradation watches.
  double BacklogFraction() const;
  /// Live segment paths, oldest first.
  std::vector<std::string> SegmentPaths() const;
  const TelemetryLogOptions& options() const { return options_; }
  /// The "blackbox" flight-record section body (a JSON object).
  std::string FlightSectionJson() const;

 private:
  TelemetryLog(TelemetryLogOptions options,
               std::unique_ptr<fault::SegmentLog> log);

  struct Cell {
    std::atomic<uint64_t> seq{0};
    TelemetryRecord rec;
    uint64_t enqueue_ns = 0;
  };

  void WriteFrameLocked(const TelemetryRecord& rec);  // io_mu_ held
  void ApplyRetentionLocked();                        // io_mu_ held
  size_t DrainLocked();                               // io_mu_ held
  void FlusherMain();

  TelemetryLogOptions options_;
  size_t ring_mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
  std::atomic<uint64_t> enqueue_pos_{0};
  std::atomic<uint64_t> dequeue_pos_{0};

  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> sampled_out_{0};
  std::atomic<uint64_t> metric_seen_{0};

  mutable std::mutex io_mu_;
  std::unique_ptr<fault::SegmentLog> log_;  // guarded by io_mu_
  int64_t flush_lag_us_ = 0;
  std::string scratch_;  // frame encode buffer, reused across drains

  std::thread flusher_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  bool flusher_running_ = false;
  bool installed_ = false;

  // Process-wide registry mirrors (shared across instances; per-instance
  // numbers live in the atomics above and stats()).
  Counter* m_appended_;
  Counter* m_dropped_;
  Counter* m_bytes_;
  Gauge* m_segments_;
  Gauge* m_flush_lag_;
  Gauge* m_backlog_;
};

}  // namespace dbm::obs::blackbox

#endif  // DBM_OBS_BLACKBOX_LOG_H_
