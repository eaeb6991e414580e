// File-backed pages and exactly-once crash recovery.
//
// FileDiskComponent persists pages to one file:
//
//   [8B magic "DBMPAGE1"][u32 version][u32 page size]     16-byte header
//   slot 0: [u32 crc][u32 page_id][u64 lsn][4096 bytes]   4112 bytes
//   slot 1: ...
//
// all little-endian. The file is a fault::DurableFile
// (fault/durable_file.h), the one type under this file and every log
// segment: it owns the header rule, the crash act-out at
// `storage.disk.write` and fsync under the fsyncgate rule. A header no
// fsync covered may be lost while later slots persisted; Open then
// writes it again and Recover repairs the slots from the WAL, which no
// checkpoint has truncated before the page file's first fsync.
//
// The per-slot CRC covers (page_id, lsn, body), so a torn or bit-flipped
// slot is detected on read — Status::DataLoss, never garbage rows. The
// per-slot LSN is the WAL sequence number of the image last written
// there; recovery replays a WAL record onto a slot only when the
// record's LSN is newer (`rec.lsn > PageLsn(page)`), which makes replay
// idempotent: running recovery twice changes nothing. A torn slot
// reports LSN 0 and is therefore always repaired from the WAL — safe,
// because the WAL-before-writeback invariant guarantees the image was
// durable in the log before the slot write began.
//
// Recover() unifies the data plane with the fault/recovery safe-point
// machinery (ROBUSTNESS.md): it scans the WAL with the torn-tail rule,
// replays trusted page images in LSN order, fsyncs the page file, and
// records a "wal.recovery" safe point whose position is the highest
// replayed LSN.

#ifndef DBM_STORAGE_DURABLE_DISK_H_
#define DBM_STORAGE_DURABLE_DISK_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "fault/durable_file.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace dbm::fault {
class StateManager;
}  // namespace dbm::fault

namespace dbm::storage {

inline constexpr char kPageFileMagic[8] = {'D', 'B', 'M', 'P',
                                           'A', 'G', 'E', '1'};
inline constexpr uint32_t kPageFileVersion = 1;
inline constexpr size_t kPageFileHeaderBytes = 16;
/// Slot = u32 crc + u32 page_id + u64 lsn + body.
inline constexpr size_t kPageSlotHeaderBytes = 16;
inline constexpr size_t kPageSlotBytes = kPageSlotHeaderBytes + kPageSize;

/// A DiskComponent whose pages live in a file. Substitutes for the
/// in-memory disk anywhere a `Require<DiskComponent>("disk")` port
/// resolves. Read/Write of distinct pages may run concurrently
/// (pread/pwrite at disjoint offsets); Allocate follows the
/// load-then-scan discipline of the base class.
class FileDiskComponent : public DiskComponent {
 public:
  /// Opens (creating if absent) the page file at `path`. An existing
  /// file must carry a valid header, or a lost one (shorter than the
  /// header or all zeros), which is written again; any other header is
  /// DataLoss. The whole slots after it become page_count(). Slot CRCs
  /// are NOT verified here — a latent torn slot surfaces as DataLoss on
  /// first read, or is silently repaired by Recover() first.
  static Result<std::unique_ptr<FileDiskComponent>> Open(
      const std::string& path, std::string name = "disk");
  ~FileDiskComponent() override;

  /// Reserves the next page id without touching the file: the slot
  /// materialises when its first Write extends the file, so an
  /// allocated-but-never-written page does not survive restart (the
  /// clean-prefix rule) and reads as DataLoss until written. Returns
  /// kInvalidPage when the disk is dead (injected crash).
  PageId Allocate() override;

  /// Reads and CRC-verifies a slot. A mismatch is Status::DataLoss —
  /// the bytes are provably gone; retrying re-reads the same corrupt
  /// sector.
  Status Read(PageId id, Page* out) override;

  /// Writes a slot (CRC recomputed, `lsn` persisted). Consults the
  /// `storage.disk.write` fault point: error → IoError with nothing
  /// written; crash → half a slot hits the file and the disk dies (the
  /// torn-slot shape recovery must repair from the WAL).
  Status Write(PageId id, const Page& page, uint64_t lsn = 0) override;

  size_t page_count() const override;

  /// The slot's stored LSN, or 0 when the slot is unreadable (out of
  /// range, I/O error, CRC mismatch) — so `rec.lsn > PageLsn(id)` is
  /// exactly the "replay needed" predicate.
  uint64_t PageLsn(PageId id);

  /// fsync the page file, and its directory the first time after Open
  /// wrote its header. On failure the disk dies: the dropped dirty pages
  /// cannot be re-synced, and pretending the barrier passed would let
  /// checkpoint truncation unlink the WAL images that could repair them.
  Status Sync() override;

  /// Directory fsyncs Sync has issued (at most one, for a new file).
  uint64_t dir_fsyncs() const;
  bool dead() const { return file_->dead(); }
  const std::string& path() const { return file_->path(); }

 private:
  FileDiskComponent(std::string name,
                    std::unique_ptr<fault::DurableFile> file, size_t pages);

  static uint64_t SlotOffset(PageId id) {
    return kPageFileHeaderBytes + uint64_t{id} * kPageSlotBytes;
  }
  /// Reads page `id`'s slot into `slot` and checks it: NotFound for an
  /// unallocated page, DataLoss for a short read, a CRC mismatch or
  /// another page's slot.
  Status ReadSlot(PageId id, char* slot, uint64_t* lsn) const;

  const std::unique_ptr<fault::DurableFile> file_;
  mutable std::mutex mu_;  // guards pages_, slot_, unsynced_dir_, dir_fsyncs_
  size_t pages_ = 0;
  std::string slot_;  // Write's encode buffer, reused across writes
  /// The file's directory while its name is not durable (Open wrote the
  /// header); empty once Sync fsynced it.
  std::string unsynced_dir_;
  uint64_t dir_fsyncs_ = 0;

  obs::Counter* m_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_fsyncs_;
  obs::Counter* m_crc_errors_;
  obs::Gauge* m_pages_;
};

/// What recovery did (also the shape tools/wal_dump prints).
struct RecoveryReport {
  uint64_t frames_scanned = 0;
  uint64_t pages_replayed = 0;   // WAL image newer than the slot
  uint64_t pages_skipped = 0;    // slot already current (idempotence)
  uint64_t checkpoints = 0;
  bool truncated = false;        // the scan hit a torn tail
  uint64_t torn_tail_bytes = 0;
  Lsn max_lsn = 0;               // highest trusted LSN replayed/seen
  Lsn redo_lsn = 0;              // from the last checkpoint frame
  uint64_t safe_point_sequence = 0;  // recorded under "wal.recovery"
};

/// Replays the trusted WAL prefix under `wal_dir` onto `disk`:
/// exactly-once by LSN comparison, torn slots repaired, page file
/// fsynced at the end. When `state` is given, records a "wal.recovery"
/// safe point (position = highest trusted LSN) and counts a replay —
/// the same StateManager discipline the streaming plane uses.
Result<RecoveryReport> Recover(FileDiskComponent* disk,
                               const std::string& wal_dir,
                               fault::StateManager* state = nullptr);

}  // namespace dbm::storage

#endif  // DBM_STORAGE_DURABLE_DISK_H_
