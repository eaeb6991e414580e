#include "storage/durable_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "fault/recovery.h"
#include "fault/segment_log.h"
#include "obs/tracectx.h"

namespace dbm::storage {

namespace {

/// CRC over (page_id, lsn, body) — the slot minus its own checksum.
uint32_t SlotCrc(const uint8_t* slot) {
  return Crc32(slot + 4, kPageSlotBytes - 4);
}

void EncodeSlot(PageId id, uint64_t lsn, const uint8_t* body,
                uint8_t* slot) {
  for (int i = 0; i < 4; ++i) {
    slot[4 + i] = static_cast<uint8_t>((id >> (8 * i)) & 0xff);
  }
  for (int i = 0; i < 8; ++i) {
    slot[8 + i] = static_cast<uint8_t>((lsn >> (8 * i)) & 0xff);
  }
  std::memcpy(slot + kPageSlotHeaderBytes, body, kPageSize);
  uint32_t crc = SlotCrc(slot);
  for (int i = 0; i < 4; ++i) {
    slot[i] = static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
  }
}

/// Returns false on CRC mismatch. On success fills *id and *lsn.
bool DecodeSlot(const uint8_t* slot, PageId* id, uint64_t* lsn) {
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<uint32_t>(slot[i]) << (8 * i);
  }
  if (crc != SlotCrc(slot)) return false;
  PageId pid = 0;
  for (int i = 0; i < 4; ++i) {
    pid |= static_cast<PageId>(slot[4 + i]) << (8 * i);
  }
  uint64_t l = 0;
  for (int i = 0; i < 8; ++i) {
    l |= static_cast<uint64_t>(slot[8 + i]) << (8 * i);
  }
  *id = pid;
  *lsn = l;
  return true;
}

void EncodePageFileHeader(uint8_t* out) {
  std::memcpy(out, kPageFileMagic, sizeof(kPageFileMagic));
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<uint8_t>((kPageFileVersion >> (8 * i)) & 0xff);
  }
  uint32_t page_size = static_cast<uint32_t>(kPageSize);
  for (int i = 0; i < 4; ++i) {
    out[12 + i] = static_cast<uint8_t>((page_size >> (8 * i)) & 0xff);
  }
}

bool CheckPageFileHeader(const uint8_t* data, size_t n) {
  if (n < kPageFileHeaderBytes) return false;
  if (std::memcmp(data, kPageFileMagic, sizeof(kPageFileMagic)) != 0) {
    return false;
  }
  uint32_t version = 0, page_size = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(data[8 + i]) << (8 * i);
    page_size |= static_cast<uint32_t>(data[12 + i]) << (8 * i);
  }
  return version == kPageFileVersion && page_size == kPageSize;
}

}  // namespace

FileDiskComponent::FileDiskComponent(std::string name, std::string path,
                                     int fd, size_t pages)
    : DiskComponent(std::move(name)),
      path_(std::move(path)),
      fd_(fd),
      pages_(pages),
      write_point_(
          fault::Injector::Default().GetPoint("storage.disk.write")),
      m_reads_(&obs::Registry::Default().GetCounter("store.disk.reads")),
      m_writes_(&obs::Registry::Default().GetCounter("store.disk.writes")),
      m_fsyncs_(&obs::Registry::Default().GetCounter("store.disk.fsyncs")),
      m_crc_errors_(
          &obs::Registry::Default().GetCounter("store.disk.crc_errors")),
      m_pages_(&obs::Registry::Default().GetGauge("store.disk.pages")) {
  m_pages_->Set(static_cast<double>(pages_));
}

Result<std::unique_ptr<FileDiskComponent>> FileDiskComponent::Open(
    const std::string& path, std::string name) {
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot open page file '" + path + "'");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Unavailable("cannot stat page file '" + path + "'");
  }
  size_t pages = 0;
  const bool fresh = st.st_size == 0;
  if (fresh) {
    uint8_t header[kPageFileHeaderBytes];
    EncodePageFileHeader(header);
    if (::pwrite(fd, header, sizeof(header), 0) !=
        static_cast<ssize_t>(sizeof(header))) {
      ::close(fd);
      return Status::IoError("cannot write page file header to '" + path +
                             "'");
    }
  } else {
    uint8_t header[kPageFileHeaderBytes];
    ssize_t n = ::pread(fd, header, sizeof(header), 0);
    if (n != static_cast<ssize_t>(sizeof(header)) ||
        !CheckPageFileHeader(header, sizeof(header))) {
      ::close(fd);
      return Status::DataLoss("'" + path +
                              "' is not a DBMPAGE1 page file");
    }
    // A crash mid-Allocate or mid-Write can leave a ragged final slot;
    // count only whole slots — the ragged bytes are a torn slot that
    // Read reports as DataLoss and Recover repairs from the WAL.
    pages = static_cast<size_t>(st.st_size - kPageFileHeaderBytes) /
            kPageSlotBytes;
  }
  std::unique_ptr<FileDiskComponent> disk(
      new FileDiskComponent(std::move(name), path, fd, pages));
  disk->dir_dirty_ = fresh;
  return disk;
}

FileDiskComponent::~FileDiskComponent() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (!dead_) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

PageId FileDiskComponent::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_ || fd_ < 0) return kInvalidPage;
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

Status FileDiskComponent::Read(PageId id, Page* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_ || fd_ < 0) {
      return Status::Unavailable("page file is dead (crash fault)");
    }
    if (id >= pages_) {
      return Status::NotFound("disk read of unallocated page " +
                              std::to_string(id));
    }
  }
  uint8_t slot[kPageSlotBytes];
  ssize_t n = ::pread(fd_, slot, sizeof(slot), SlotOffset(id));
  if (n != static_cast<ssize_t>(sizeof(slot))) {
    m_crc_errors_->Add(1);
    return Status::DataLoss("torn slot for page " + std::to_string(id) +
                            " in '" + path_ + "'");
  }
  PageId stored_id = 0;
  uint64_t lsn = 0;
  if (!DecodeSlot(slot, &stored_id, &lsn) || stored_id != id) {
    m_crc_errors_->Add(1);
    return Status::DataLoss("CRC mismatch on page " + std::to_string(id) +
                            " in '" + path_ + "'");
  }
  out->id = id;
  std::memcpy(out->bytes.data(), slot + kPageSlotHeaderBytes, kPageSize);
  reads_.fetch_add(1, std::memory_order_relaxed);
  m_reads_->Add(1);
  return Status::OK();
}

Status FileDiskComponent::Write(PageId id, const Page& page, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_ || fd_ < 0) {
    return Status::Unavailable("page file is dead (crash fault)");
  }
  if (id >= pages_) {
    return Status::NotFound("disk write of unallocated page " +
                            std::to_string(id));
  }
  uint8_t slot[kPageSlotBytes];
  EncodeSlot(id, lsn, page.bytes.data(), slot);
  if (write_point_->armed()) {
    fault::Decision verdict = write_point_->Decide();
    if (verdict.crash) {
      // Act the crash out: half a slot lands on disk — a torn page whose
      // CRC cannot verify — then the disk dies. Recovery must repair the
      // slot from the WAL image (durable first, by the
      // WAL-before-writeback invariant).
      (void)!::pwrite(fd_, slot, sizeof(slot) / 2, SlotOffset(id));
      dead_ = true;
      fault::Record(fault::FaultEventKind::kInjected, "storage.disk.write",
                    "crash mid-writeback: torn slot for page " +
                        std::to_string(id) + " in " + path_,
                    0);
      return Status::Unavailable(
          "page file is dead (injected crash mid-writeback)");
    }
    if (verdict.error) {
      // A failed writeback leaves the slot untouched; the frame stays
      // dirty and the caller may retry.
      return Status::IoError("injected disk write error on page " +
                             std::to_string(id));
    }
  }
  if (::pwrite(fd_, slot, sizeof(slot), SlotOffset(id)) !=
      static_cast<ssize_t>(sizeof(slot))) {
    dead_ = true;
    return Status::Unavailable("short write to page file '" + path_ + "'");
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  m_writes_->Add(1);
  return Status::OK();
}

size_t FileDiskComponent::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_;
}

uint64_t FileDiskComponent::PageLsn(PageId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0 || id >= pages_) return 0;
  }
  uint8_t slot[kPageSlotBytes];
  if (::pread(fd_, slot, sizeof(slot), SlotOffset(id)) !=
      static_cast<ssize_t>(sizeof(slot))) {
    return 0;
  }
  PageId stored_id = 0;
  uint64_t lsn = 0;
  if (!DecodeSlot(slot, &stored_id, &lsn) || stored_id != id) return 0;
  return lsn;
}

Status FileDiskComponent::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_ || fd_ < 0) {
    return Status::Unavailable("page file is dead (crash fault)");
  }
  if (::fsync(fd_) != 0) {
    // A failed fsync may have dropped the dirty pages and cannot be
    // retried; reporting the barrier as passed would let checkpoint
    // truncation unlink the only durable images of what was lost.
    dead_ = true;
    return Status::IoError("fsync failed on page file '" + path_ + "'");
  }
  m_fsyncs_->Add(1);
  if (dir_dirty_) {
    // The file's name, not only its bytes: a checkpoint passes this
    // barrier before it unlinks the log segments that could rebuild it.
    std::string dir = std::filesystem::path(path_).parent_path().string();
    if (Status synced = fault::FsyncDirectory(dir.empty() ? "." : dir);
        !synced.ok()) {
      dead_ = true;
      return synced;
    }
    dir_dirty_ = false;
    ++dir_fsyncs_;
  }
  return Status::OK();
}

uint64_t FileDiskComponent::dir_fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_fsyncs_;
}

bool FileDiskComponent::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
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
