// The segment log: one framed, segmented, crash-checked log under both
// the data-plane WAL (storage/wal.h) and the black box
// (obs/blackbox/log.h).
//
// A log is a directory of segment files, <prefix><seq>.seg, the sequence
// zero-padded to six digits and growing a digit past 999999 — so
// segments are always ordered by number, never by name. A segment starts
// with an 8-byte magic and a u32 version; every record after it is one
// frame
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// all little-endian, written field by field (never a raw struct memcpy)
// so a segment written by one build reads on any other. What a payload
// means belongs to the codec on top; everything else lives here once:
//
//  * Writing (SegmentLog). Rotation past segment_bytes; the fault point
//    each append consults — a crash verdict writes half a frame, kills
//    the log and records the fault (byte-for-byte a kill -9 mid-append),
//    an error verdict writes nothing; fsync under the fsyncgate rule — a
//    failed fsync kills the log and the durable barrier stays where it
//    was, because the kernel may already have dropped the dirty pages;
//    and unlinking old segments.
//  * Reading (ScanSegments). The torn-tail rule: segments are visited in
//    sequence order, and the first frame with a short header, an absurd
//    length, a CRC mismatch or a payload its codec rejects ends the
//    trusted history. Nothing after it — later frames of that segment
//    and every later segment — is believed.
//  * Reopening (SegmentLog::Open). Scan, physically truncate the torn
//    tail, unlink every segment past it, and number new segments after
//    the survivors (reusing a header-only last one), so new frames never
//    land behind bytes no reader would trust and no stale segment
//    outlives a repair.
//
// Each frame may carry a codec-assigned sequence number — the WAL's LSN;
// the black box numbers its frames from 1 in each process. The log keeps
// the last one written (flushed) and the last one covered by an fsync
// (durable): the durability barrier both codecs expose. An fsync reaches
// only the open segment, so the barrier never passes a frame sealed into
// a segment no fsync covered: a log that fsyncs at all (fsync_on_seal)
// fsyncs such a segment as it seals it, and one that never does stops
// its barrier before the first such frame.

#ifndef DBM_FAULT_SEGMENT_LOG_H_
#define DBM_FAULT_SEGMENT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"

namespace dbm::obs {
class Counter;
}  // namespace dbm::obs

namespace dbm::fault {

class Point;

inline constexpr size_t kSegmentHeaderBytes = 12;  // magic + u32 version
inline constexpr size_t kFrameHeaderBytes = 8;     // u32 len + u32 crc

/// What tells one log's files apart from another's.
struct SegmentFormat {
  std::string_view prefix;  // "wal-" names segments wal-000001.seg, ...
  std::string_view magic;   // exactly 8 bytes
  uint32_t version;
  /// Upper bound on a payload: anything longer on disk is corruption,
  /// not a record.
  size_t max_payload;
};

/// "<prefix><seq, zero-padded to six digits>.seg".
std::string SegmentFileName(const SegmentFormat& format, uint64_t seq);

/// Appends the 12-byte segment header to *out.
void EncodeSegmentHeader(const SegmentFormat& format, std::string* out);

/// Starts a frame at the end of *out: appends the 8 header bytes and
/// returns where they start. The caller appends the payload, then calls
/// EndFrame — codecs encode in place, never through a temporary payload.
size_t BeginFrame(std::string* out);
/// Stamps the length and CRC of the payload appended since BeginFrame
/// returned `at`.
void EndFrame(std::string* out, size_t at);

/// Checks the frame at data[0..n): a whole header, a length within
/// format.max_payload and within the buffer, and a matching CRC. Returns
/// the frame's size (header + payload) and points *payload at the
/// payload, or returns 0 for a torn or corrupt frame.
size_t ParseFrame(const SegmentFormat& format, const uint8_t* data, size_t n,
                  std::string_view* payload);

/// Appends `v` to *out as sizeof(T) little-endian bytes.
template <typename T>
void PutLe(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(
        static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xff));
  }
}

/// A codec's verdict on one CRC-valid payload during a scan.
enum class ScanStep : uint8_t {
  kNext,  // trusted; keep scanning
  kStop,  // trusted; the caller has seen enough
  kTorn,  // rejected: the trusted history ends before this frame
};

/// Decodes one payload of `segment`, optionally setting *lsn (0 on entry)
/// to the frame's sequence number.
using FrameFn = std::function<ScanStep(std::string_view payload,
                                       const std::string& segment,
                                       uint64_t* lsn)>;

/// One segment file, as a scan found it or as the writer keeps it.
struct Segment {
  std::string path;
  uint64_t seq = 0;
  uint64_t frames = 0;     // trusted frames
  uint64_t first_lsn = 0;  // 0 until a frame with a sequence number lands
  uint64_t last_lsn = 0;
  uint64_t bytes = 0;      // trusted frame bytes, the header not counted
};

/// What a scan found. Shared by every reader of either log: the codecs'
/// recovery, the dump tools and SegmentLog::Open.
struct SegmentScanReport {
  uint64_t segments_scanned = 0;
  uint64_t frames = 0;            // trusted frames
  uint64_t bytes_scanned = 0;
  bool truncated = false;         // a torn or corrupt frame ended the scan
  std::string truncated_segment;
  uint64_t truncated_offset = 0;
  uint64_t torn_tail_bytes = 0;   // bytes past the tear, now untrusted
  uint64_t max_lsn = 0;           // last sequence number the codec set
  std::vector<Segment> segments;  // every segment read, the torn one last
};

/// Streams every trusted payload under `dir` through `fn` in append
/// order under the torn-tail rule. A missing directory is a fresh log:
/// OK with an empty report. Never modifies the directory.
Status ScanSegments(const SegmentFormat& format, const std::string& dir,
                    const FrameFn& fn, SegmentScanReport* report);

struct SegmentLogOptions {
  std::string dir;                    // created if absent
  size_t segment_bytes = 1 << 20;     // rotate before a frame passes this
  uint64_t fsync_interval_bytes = 0;  // fsync after this many (0: never)
  /// The policy fsyncs at all: a seal fsyncs the segment it closes when
  /// that segment holds frames no fsync covered. Off, the log never
  /// fsyncs unasked, and sealing such a segment stops the barrier.
  bool fsync_on_seal = false;
  std::string fault_point;            // consulted once per append
  const char* fsync_span = nullptr;   // storage-plane span per fsync
  obs::Counter* fsync_counter = nullptr;
};

/// The writer. Not thread-safe: each codec serialises calls behind its
/// own mutex.
class SegmentLog {
 public:
  /// Creates the directory if needed, scans it with `fn` (filling
  /// *report), repairs it as described above and opens a fresh segment.
  /// Every trusted frame counts as durable: the next scan reads it back.
  /// On an empty directory this lists it, creates one file and writes
  /// its header — no file is read and nothing is fsynced.
  static Result<std::unique_ptr<SegmentLog>> Open(const SegmentFormat& format,
                                                  SegmentLogOptions options,
                                                  const FrameFn& fn,
                                                  SegmentScanReport* report);
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  /// Writes one whole frame (EndFrame's output) whose sequence number is
  /// `lsn`, rotating first if it would overflow the open segment.
  /// Unavailable once the log is dead; IoError for an injected error
  /// (nothing written — the caller may retry) or a failed fsync.
  /// `at_us` stamps the fault record of an injected crash.
  Status Append(std::string_view frame, uint64_t lsn, SimTime at_us = 0);

  /// fsyncs the open segment and moves the durable barrier up to the
  /// flushed one — unless a live sealed segment holds frames no fsync
  /// covered, which the barrier may not pass. On failure the log dies
  /// and the barrier stays.
  Status Fsync();

  /// Unlinks sealed segments, oldest first, while `drop` says so; the
  /// open segment always survives. Returns how many went.
  size_t UnlinkOldestWhile(const std::function<bool(const Segment&)>& drop);

  /// Closes the open segment; appends after this kill the log.
  void Close();

  bool dead() const { return dead_; }
  uint64_t flushed_lsn() const { return flushed_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  uint64_t bytes() const { return bytes_; }  // frame bytes appended
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t segments_created() const { return segments_created_; }
  /// The live segments, oldest first; the last one is open for appends.
  const std::deque<Segment>& segments() const { return segments_; }
  const std::string& dir() const { return options_.dir; }

 private:
  SegmentLog(const SegmentFormat& format, SegmentLogOptions options);

  Status OpenSegment();
  /// Closes the open segment before a rotation, first fsyncing it if it
  /// holds un-fsynced frames and fsync_on_seal is set.
  Status Seal();

  const SegmentFormat format_;
  const SegmentLogOptions options_;
  Point* point_;
  int fd_ = -1;
  uint64_t next_seq_ = 1;
  std::deque<Segment> segments_;
  uint64_t flushed_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  uint64_t bytes_ = 0;
  uint64_t bytes_since_fsync_ = 0;  // > 0: the open segment is un-fsynced
  uint64_t unsynced_seal_seq_ = 0;  // last segment sealed un-fsynced
  uint64_t fsyncs_ = 0;
  uint64_t segments_created_ = 0;
  bool dead_ = false;
};

}  // namespace dbm::fault

#endif  // DBM_FAULT_SEGMENT_LOG_H_
