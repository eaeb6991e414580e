// The write-ahead log: durability for the paged store.
//
// A payload codec over the shared segment log (fault/segment_log.h):
// segments "wal-000001.seg", ... under the "DBMWAL01" magic, each frame's
// payload either a physical page image (type, LSN, page id, the 4096
// bytes) or a fuzzy checkpoint (type, LSN, redo LSN). The segment log
// owns framing, rotation, the crash point, fsync and the torn-tail rule;
// the WAL adds LSNs, assigned at append, strictly monotonic across
// segments, which define three watermarks:
//
//   next_lsn     the LSN the next append will take
//   flushed_lsn  last frame fully handed to the OS (write(2) returned)
//   durable_lsn  last frame covered by an fsync — the durability barrier
//
// FsyncPolicy governs how the barrier advances: kNever (it trails until
// an explicit Flush — the deterministic-test mode), kInterval (fsync
// every fsync_interval_bytes), kCommit (Durable(lsn) fsyncs immediately,
// so the WAL-before-writeback barrier is a real fsync per writeback
// group: BufferManager::FlushAll logs every dirty page, then forces
// once, and a dirty eviction does the same for its shard's dirty
// pages). Under kInterval and kCommit a rotation fsyncs the segment it
// seals if it holds un-fsynced frames, so one Durable covers every frame
// up to its LSN across segments; under kNever the barrier stops before
// the first frame sealed un-fsynced (fault/segment_log.h).
//
// Recovery is the torn-tail rule plus one codec check: an LSN that does
// not exceed its predecessor — only a stale or spliced segment produces
// one — ends the trusted history like a bad checksum. Wal::Open repairs
// the directory by the same rule and resumes LSNs where the trusted
// prefix ended.
//
// Truncation: once every page dirtied before some redo LSN has been
// written back to the page file, the segments wholly below that LSN are
// dead weight; TruncateBelow unlinks them (fuzzy checkpoints record the
// redo LSN so a restart knows the same thing).

#ifndef DBM_STORAGE_WAL_H_
#define DBM_STORAGE_WAL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "fault/segment_log.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace dbm::storage {

/// WAL sequence number. 0 is "no LSN"; the first record gets 1.
using Lsn = uint64_t;

enum class WalFsyncPolicy { kNever, kInterval, kCommit };
const char* WalFsyncPolicyName(WalFsyncPolicy policy);

/// The WAL's segment files. A payload is at most a page image plus
/// headroom.
inline constexpr fault::SegmentFormat kWalFormat{"wal-", "DBMWAL01", 1,
                                                 kPageSize + 64};

enum class WalRecordType : uint8_t {
  kPageImage = 1,
  kCheckpoint = 2,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kPageImage;
  Lsn lsn = 0;
  PageId page = kInvalidPage;   // kPageImage
  Lsn redo_lsn = 0;             // kCheckpoint: replay may start here
  std::vector<uint8_t> image;   // kPageImage: exactly kPageSize bytes
};

/// Appends one complete frame (header + payload) for `rec` to *out.
void EncodeWalFrame(const WalRecord& rec, std::string* out);
/// Decodes the frame at data[0..n). Returns false on a torn or corrupt
/// frame (the torn-tail signal).
bool DecodeWalFrame(const uint8_t* data, size_t n, WalRecord* rec,
                    size_t* frame_bytes);

struct WalOptions {
  std::string dir;                 // segment directory (created if absent)
  size_t segment_bytes = 1 << 20;  // rotate past this size
  WalFsyncPolicy fsync = WalFsyncPolicy::kNever;
  uint64_t fsync_interval_bytes = 1 << 16;  // kInterval threshold
};

struct WalStats {
  Lsn next_lsn = 1;
  Lsn flushed_lsn = 0;
  Lsn durable_lsn = 0;
  uint64_t appends = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;
  uint64_t segments_created = 0;
  uint64_t segments_live = 0;
  uint64_t truncated_segments = 0;
  bool dead = false;
};

/// What a scan of a WAL directory found (shared by recovery and
/// tools/wal_dump): the segment log's report — its max_lsn and
/// per-segment LSN ranges are WAL LSNs — plus the checkpoint tally.
struct WalScanReport : fault::SegmentScanReport {
  Lsn redo_lsn = 0;  // from the last checkpoint seen
  uint64_t checkpoints = 0;
};

/// Streams every trusted frame under `dir` through `fn` in append order,
/// applying the torn-tail rule: the first bad frame truncates the
/// history there — nothing after it (including whole later segments) is
/// visited. `fn` may return false to stop early. A missing or empty
/// directory is a fresh database, not an error: OK with an empty report.
Status ScanWal(
    const std::string& dir,
    const std::function<bool(const WalRecord& rec,
                             const std::string& segment)>& fn,
    WalScanReport* report);

/// The log itself. All methods are thread-safe behind one internal
/// mutex — the WAL is ordered after the buffer shard latches and takes
/// no lock of any other subsystem.
class Wal {
 public:
  /// Opens (creating the directory if needed). An existing history is
  /// scanned with the torn-tail rule; the torn tail is physically
  /// truncated, later segments unlinked, and LSNs resume after the
  /// trusted prefix. Everything surviving on disk at open counts as
  /// durable (it will be read back by the next recovery scan).
  static Result<std::unique_ptr<Wal>> Open(WalOptions options);
  ~Wal();

  /// Appends a physical page image, returning its LSN. Consults the
  /// `storage.wal.append` fault point: an injected crash writes half a
  /// frame and kills the log — byte-identical to kill -9 mid-append.
  Result<Lsn> AppendPageImage(PageId id, const Page& page);

  /// Appends a fuzzy-checkpoint record carrying the redo LSN (the
  /// lowest rec_lsn across dirty frames; recovery may start replay
  /// there instead of at the log's beginning).
  Result<Lsn> AppendCheckpoint(Lsn redo_lsn);

  /// The WAL-before-writeback barrier: returns once the frame at `lsn`,
  /// and every frame before it, is durable *per the policy*. kCommit
  /// fsyncs immediately — one fsync however many frames it covers, and
  /// none when an earlier one already did; kInterval and kNever return
  /// without forcing (their barrier trails — the torn-tail rule still
  /// bounds what a crash can cost).
  Status Durable(Lsn lsn);

  /// Unconditional fsync (clean shutdown, checkpoints).
  Status Flush();

  /// Unlinks sealed segments whose every frame is below `redo_lsn`.
  Status TruncateBelow(Lsn redo_lsn);

  Lsn next_lsn() const;
  Lsn durable_lsn() const;
  WalStats stats() const;
  std::vector<std::string> SegmentPaths() const;
  const WalOptions& options() const { return options_; }

 private:
  Wal(WalOptions options, std::unique_ptr<fault::SegmentLog> log);

  /// Appends the frame encoded in scratch_, whose LSN is `lsn`.
  Result<Lsn> AppendScratchLocked(Lsn lsn);
  /// fsync: on failure the log dies and the durable barrier does NOT
  /// advance — a failed fsync may have dropped the dirty pages and
  /// cannot be safely retried.
  Status SyncLocked();
  void PublishWatermarksLocked();

  mutable std::mutex mu_;
  WalOptions options_;
  std::unique_ptr<fault::SegmentLog> log_;
  uint64_t appends_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t truncated_segments_ = 0;
  std::string scratch_;  // frame encode buffer, reused across appends

  obs::Counter* m_appends_;
  obs::Counter* m_bytes_;
  obs::Counter* m_checkpoints_;
  obs::Counter* m_truncated_;
  obs::Gauge* m_segments_;
  obs::Gauge* m_durable_lsn_;
  obs::Gauge* m_flush_lag_;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_WAL_H_
