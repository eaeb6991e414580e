// The TelemetryReader: the recovery half of the black box.
//
// Opens a segment directory written by TelemetryLog — possibly by a
// process that died mid-append — and recovers every intact record. It
// reads through the segment log's shared scanner (fault::ScanSegments,
// the one the WAL's recovery uses), so the recovery rule is the
// torn-tail rule: scan segments in sequence order, and at the FIRST
// frame that fails validation (short header, absurd length, CRC
// mismatch, malformed payload) truncate — keep everything before it,
// ignore everything after. A clean shutdown recovers every flushed
// record; a crash recovers at least the fsync barrier and at most the
// flushed prefix, never a torn or duplicated record.
//
// On top of the recovered records it rebuilds history views: time-range
// slices, per-metric last-value-as-of (the Observatory's gauge state at
// any past instant — "time travel"), and the history.* tables that
// /obs/query serves through query::Execute. Those filter crash-surviving
// history by time range exactly like live state:
//
//   history.metrics   where at_us <= 2000000 limit 10
//   history.decisions where constraint_id = 900
//
// One table per record kind; every schema starts with at_us, so the
// time-range idiom (`where at_us >= T`) works uniformly, and ends with
// trace_id.

#ifndef DBM_OBS_BLACKBOX_READER_H_
#define DBM_OBS_BLACKBOX_READER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "fault/segment_log.h"
#include "obs/blackbox/record.h"
#include "obs/table.h"

namespace dbm::obs::blackbox {

/// What recovery found: the shared scan report (`frames` counts the
/// recovered records).
using RecoveryReport = fault::SegmentScanReport;

class TelemetryReader {
 public:
  /// Scans `dir` for telem-*.seg files. A missing or empty directory is
  /// an error; a directory with only torn content recovers zero records
  /// with truncated=true (still ok()).
  static Result<TelemetryReader> Open(const std::string& dir);

  const std::string& dir() const { return dir_; }
  /// All recovered records, oldest segment first, in append order.
  const std::vector<TelemetryRecord>& records() const { return records_; }
  const RecoveryReport& report() const { return report_; }

  /// Records with from_us <= at_us <= to_us, in append order.
  std::vector<TelemetryRecord> Between(int64_t from_us, int64_t to_us) const;

  /// Time travel for the gauge plane: the last published value of every
  /// bus metric at or before `at_us` — the Observatory's gauge state as
  /// of that instant, rebuilt from the sampled publish history.
  std::map<std::string, double> GaugesAsOf(int64_t at_us) const;

  /// at_us of the newest recovered record (0 when empty).
  int64_t LastAtUs() const;

 private:
  std::string dir_;
  std::vector<TelemetryRecord> records_;
  RecoveryReport report_;
};

/// history.metrics, history.spans, history.decisions, history.faults and
/// history.profiles over `reader`'s records, which must outlive the
/// tables' scans.
std::vector<Table> HistoryTables(const TelemetryReader& reader);

}  // namespace dbm::obs::blackbox

#endif  // DBM_OBS_BLACKBOX_READER_H_
