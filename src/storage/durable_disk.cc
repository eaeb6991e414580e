#include "storage/durable_disk.h"

#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "common/payload_reader.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "fault/segment_log.h"
#include "obs/tracectx.h"

namespace dbm::storage {

namespace {

/// CRC over (page_id, lsn, body) — the slot minus its own checksum.
uint32_t SlotCrc(const char* slot) {
  return Crc32(reinterpret_cast<const uint8_t*>(slot) + 4, kPageSlotBytes - 4);
}

/// Encodes page `id`'s slot into *out.
void EncodeSlot(PageId id, uint64_t lsn, const Page& page, std::string* out) {
  out->clear();
  fault::PutLe(out, uint32_t{0});  // the CRC, stamped once the rest is in
  fault::PutLe(out, id);
  fault::PutLe(out, lsn);
  out->append(reinterpret_cast<const char*>(page.bytes.data()), kPageSize);
  fault::PutLeAt(out, 0, SlotCrc(out->data()));
}

/// True when `slot` is page `id`'s and its CRC holds; fills *lsn.
bool DecodeSlot(const char* slot, PageId id, uint64_t* lsn) {
  PayloadReader in({slot, kPageSlotBytes});
  uint32_t crc = 0;
  PageId stored = kInvalidPage;
  return in.Le(&crc) && crc == SlotCrc(slot) && in.Le(&stored) &&
         stored == id && in.Le(lsn);
}

}  // namespace

FileDiskComponent::FileDiskComponent(std::string name,
                                     std::unique_ptr<fault::DurableFile> file,
                                     size_t pages)
    : DiskComponent(std::move(name)),
      file_(std::move(file)),
      pages_(pages),
      m_reads_(&obs::Registry::Default().GetCounter("store.disk.reads")),
      m_writes_(&obs::Registry::Default().GetCounter("store.disk.writes")),
      m_fsyncs_(&obs::Registry::Default().GetCounter("store.disk.fsyncs")),
      m_crc_errors_(
          &obs::Registry::Default().GetCounter("store.disk.crc_errors")),
      m_pages_(&obs::Registry::Default().GetGauge("store.disk.pages")) {
  slot_.reserve(kPageSlotBytes);
  m_pages_->Set(static_cast<double>(pages_));
}

Result<std::unique_ptr<FileDiskComponent>> FileDiskComponent::Open(
    const std::string& path, std::string name) {
  std::string header(kPageFileMagic, sizeof(kPageFileMagic));
  fault::PutLe(&header, kPageFileVersion);
  fault::PutLe(&header, static_cast<uint32_t>(kPageSize));
  DBM_ASSIGN_OR_RETURN(
      std::unique_ptr<fault::DurableFile> file,
      fault::DurableFile::Open(
          path, header,
          fault::Injector::Default().GetPoint("storage.disk.write")));
  // A crash mid-Allocate or mid-Write can leave a ragged final slot;
  // count only whole slots — the ragged bytes are a torn slot that
  // Read reports as DataLoss and Recover repairs from the WAL.
  const size_t pages = static_cast<size_t>(
      (file->opened_size() - kPageFileHeaderBytes) / kPageSlotBytes);
  const bool wrote_header = file->wrote_header();
  std::unique_ptr<FileDiskComponent> disk(
      new FileDiskComponent(std::move(name), std::move(file), pages));
  if (wrote_header) {
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    disk->unsynced_dir_ = dir.empty() ? "." : dir;
  }
  return disk;
}

FileDiskComponent::~FileDiskComponent() {
  (void)file_->Fsync();  // best-effort on shutdown; a dead file refuses
}

PageId FileDiskComponent::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_->dead()) return kInvalidPage;
  // Sparse allocation: the slot is not materialised until its first
  // Write extends the file (pwrite past EOF). An allocated-but-never-
  // written page therefore does not survive restart — page_count is
  // rebuilt from the file size, which is exactly the clean-prefix rule
  // recovery already enforces — and reading one back before any write
  // reports DataLoss like any other unmaterialised slot. Callers go
  // through BufferManager::GetFreshPage, which never issues that read.
  PageId id = static_cast<PageId>(pages_);
  ++pages_;
  m_pages_->Set(static_cast<double>(pages_));
  return id;
}

Status FileDiskComponent::ReadSlot(PageId id, char* slot,
                                   uint64_t* lsn) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= pages_) {
      return Status::NotFound("disk read of unallocated page " +
                              std::to_string(id));
    }
  }
  if (!file_->Read(SlotOffset(id), slot, kPageSlotBytes)) {
    return Status::DataLoss("torn slot for page " + std::to_string(id) +
                            " in '" + path() + "'");
  }
  if (!DecodeSlot(slot, id, lsn)) {
    return Status::DataLoss("CRC mismatch on page " + std::to_string(id) +
                            " in '" + path() + "'");
  }
  return Status::OK();
}

Status FileDiskComponent::Read(PageId id, Page* out) {
  if (file_->dead()) {
    return Status::Unavailable("page file is dead (crash fault)");
  }
  char slot[kPageSlotBytes];
  uint64_t lsn = 0;
  if (Status read = ReadSlot(id, slot, &lsn); !read.ok()) {
    if (read.IsDataLoss()) m_crc_errors_->Add(1);
    return read;
  }
  out->id = id;
  std::memcpy(out->bytes.data(), slot + kPageSlotHeaderBytes, kPageSize);
  reads_.fetch_add(1, std::memory_order_relaxed);
  m_reads_->Add(1);
  return Status::OK();
}

Status FileDiskComponent::Write(PageId id, const Page& page, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_) {
    return Status::NotFound("disk write of unallocated page " +
                            std::to_string(id));
  }
  // A crash tears the slot, whose CRC then cannot verify, and kills the
  // disk: Recover repairs the slot from its WAL image, durable first by
  // the WAL-before-writeback invariant. An error leaves the slot as it
  // was, and the frame stays dirty for a retry.
  EncodeSlot(id, lsn, page, &slot_);
  DBM_RETURN_NOT_OK(file_->Write(SlotOffset(id), slot_));
  writes_.fetch_add(1, std::memory_order_relaxed);
  m_writes_->Add(1);
  return Status::OK();
}

size_t FileDiskComponent::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_;
}

uint64_t FileDiskComponent::PageLsn(PageId id) {
  char slot[kPageSlotBytes];
  uint64_t lsn = 0;
  return ReadSlot(id, slot, &lsn).ok() ? lsn : 0;
}

Status FileDiskComponent::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  // The file's name too, while Open's header write is all that made it:
  // a checkpoint passes this barrier before it unlinks the log segments
  // that could rebuild the file.
  const bool name_unsynced = !unsynced_dir_.empty();
  DBM_RETURN_NOT_OK(file_->Fsync({&unsynced_dir_, name_unsynced ? 1u : 0u}));
  m_fsyncs_->Add(1);
  if (name_unsynced) {
    unsynced_dir_.clear();
    ++dir_fsyncs_;
  }
  return Status::OK();
}

uint64_t FileDiskComponent::dir_fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_fsyncs_;
}

Result<RecoveryReport> Recover(FileDiskComponent* disk,
                               const std::string& wal_dir,
                               fault::StateManager* state) {
  obs::SpanScope span("wal.recover", "storage");
  RecoveryReport report;
  Status replay_status = Status::OK();
  WalScanReport scan;
  DBM_RETURN_NOT_OK(ScanWal(
      wal_dir,
      [&](const WalRecord& rec, const std::string&) {
        ++report.frames_scanned;
        if (rec.type == WalRecordType::kCheckpoint) {
          ++report.checkpoints;
          report.redo_lsn = rec.redo_lsn;
          return true;
        }
        // Make sure the slot exists: a crash before the first writeback
        // leaves the page file shorter than the WAL's horizon.
        while (disk->page_count() <= rec.page) {
          if (disk->Allocate() == kInvalidPage) {
            replay_status = Status::Unavailable(
                "cannot extend page file during recovery");
            return false;
          }
        }
        // Exactly-once by LSN comparison: a slot already carrying this
        // image (or a newer one) is skipped, so double recovery is a
        // no-op. A torn slot reports LSN 0 and is always repaired.
        if (rec.lsn <= disk->PageLsn(rec.page)) {
          ++report.pages_skipped;
          return true;
        }
        Page page;
        page.id = rec.page;
        std::memcpy(page.bytes.data(), rec.image.data(), kPageSize);
        replay_status = disk->Write(rec.page, page, rec.lsn);
        if (!replay_status.ok()) return false;
        ++report.pages_replayed;
        return true;
      },
      &scan));
  DBM_RETURN_NOT_OK(replay_status);
  report.truncated = scan.truncated;
  report.torn_tail_bytes = scan.torn_tail_bytes;
  report.max_lsn = scan.max_lsn;
  if (report.redo_lsn == 0) report.redo_lsn = scan.redo_lsn;
  DBM_RETURN_NOT_OK(disk->Sync());

  obs::Registry::Default()
      .GetGauge("wal.recovery_pages")
      .Set(static_cast<double>(report.pages_replayed));
  obs::Registry::Default()
      .GetGauge("wal.torn_tail_bytes")
      .Set(static_cast<double>(report.torn_tail_bytes));
  obs::Registry::Default().GetCounter("wal.recoveries").Add(1);

  if (state != nullptr) {
    // The same safe-point discipline the streaming plane uses: position
    // is the highest trusted LSN; sequence never regresses across
    // repeated recoveries of the same directory.
    uint64_t sequence = 1;
    Result<fault::SafePoint> latest = state->Latest("wal.recovery");
    if (latest.ok()) sequence = latest->sequence + 1;
    fault::SafePoint sp;
    sp.sequence = sequence;
    sp.position = report.max_lsn;
    sp.state = "{\"pages_replayed\":" +
               std::to_string(report.pages_replayed) +
               ",\"torn_tail_bytes\":" +
               std::to_string(report.torn_tail_bytes) + "}";
    DBM_RETURN_NOT_OK(state->Checkpoint("wal.recovery", sp));
    state->CountReplay("wal.recovery");
    report.safe_point_sequence = sequence;
  }
  return report;
}

}  // namespace dbm::storage
