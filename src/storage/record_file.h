// A heap file of variable-length records over buffer-managed pages.
//
// Page layout: [u16 record_count][u16 free_offset][records...], each
// record prefixed with a u16 length. Records never span pages; a record
// larger than the page payload is rejected.
//
// Every writer goes through one append primitive (AppendRecords): it pins
// the tail page once, writes each record's length and bytes straight into
// the frame through the caller's size/encode pair, opens a fresh page
// when the next record does not fit, and unpins each page it wrote dirty
// exactly once. Append(bytes) is a one-record call of it.
//
// Every reader goes through one slot-directory walk (WalkSlots), which
// bounds every record by the page's free offset before handing it out
// and requires the length chain to end exactly there — so a corrupt
// directory is DataLoss, never a read past the frame. The page visitor
// (VisitPage) is the scan primitive: one pin, one walk, every record's
// bytes straight from the frame, one Unpin.

#ifndef DBM_STORAGE_RECORD_FILE_H_
#define DBM_STORAGE_RECORD_FILE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer.h"

namespace dbm::storage {

/// Address of a record: page + slot index within the page.
struct RecordId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;
  bool operator==(const RecordId& other) const {
    return page == other.page && slot == other.slot;
  }
};

class RecordFile {
 public:
  /// `buffer` must have its disk/policy ports bound; `disk` allocates the
  /// file's pages.
  RecordFile(BufferManager* buffer, DiskComponent* disk)
      : buffer_(buffer), disk_(disk) {}

  /// Appends one record (AppendRecords with n = 1).
  Result<RecordId> Append(const std::vector<uint8_t>& record);

  /// The one append primitive. Appends records 0..n-1 in order: record i
  /// is `size(i)` bytes and `encode(i, dst)` writes exactly those bytes
  /// at `dst`, straight into the pinned frame. The tail page is pinned
  /// once; a record that does not fit on it closes the page and opens a
  /// fresh one (GetFreshPage), so a page holds records until the next
  /// one does not fit — the same pages whatever the batching. Each page
  /// that receives a record is unpinned dirty exactly once, a tail that
  /// receives none is unpinned clean: getpages = pages touched. Returns
  /// the first record's id (an invalid id when n = 0, which touches
  /// nothing). A record over kMaxRecord is InvalidArgument; on that or
  /// any buffer error, the records before it stay appended
  /// (record_count() counts them), so callers that want all-or-nothing
  /// validate first.
  template <typename Size, typename Encode>
  Result<RecordId> AppendRecords(size_t n, Size&& size, Encode&& encode) {
    RecordId first;
    if (n == 0) return first;
    Tail tail;
    DBM_RETURN_NOT_OK(PinTail(&tail));
    for (size_t i = 0; i < n; ++i) {
      const size_t len = size(i);
      if (len > kMaxRecord) {
        DBM_RETURN_NOT_OK(Release(&tail));
        return Status::InvalidArgument("record too large for a page");
      }
      if (tail.page == nullptr || tail.free_off + 2 + len > kPageSize) {
        DBM_RETURN_NOT_OK(Release(&tail));
        DBM_RETURN_NOT_OK(OpenFreshPage(&tail));
      }
      uint8_t* at = tail.page->bytes.data() + tail.free_off;
      PutU16(at, static_cast<uint16_t>(len));
      encode(i, at + 2);
      if (i == 0) first = RecordId{tail.id, tail.count};
      tail.free_off += 2 + len;
      ++tail.count;
      tail.wrote = true;
      ++record_count_;
    }
    DBM_RETURN_NOT_OK(Release(&tail));
    return first;
  }

  /// Re-attaches to pages already on the disk after a restart (the WAL
  /// has been replayed by then): walks page ids in order, validates each
  /// page's slot directory, and stops at the first empty, malformed or
  /// unreadable page — the relation's clean prefix. Assumes the file
  /// owns the disk's pages 0..n-1 contiguously (one relation per disk,
  /// the load-then-scan discipline).
  Status Attach();

  /// Reads one record: NotFound past the page's record count, DataLoss
  /// when the page's slot directory is malformed.
  Result<std::vector<uint8_t>> Read(const RecordId& id);

  /// Visits every record in file order. The visitor may return false to
  /// stop early.
  Status Scan(
      const std::function<bool(const RecordId&, const std::vector<uint8_t>&)>&
          visitor);

  /// Pins page `pid` once, walks its slot directory once (WalkSlots) and
  /// hands each record to `visit(slot, bytes, len)` — a view into the
  /// frame, valid only during the call — then unpins it once. `visit`
  /// returns false to stop early.
  template <typename Visit>
  Status VisitPage(PageId pid, Visit&& visit) const {
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(pid));
    Status walk = WalkSlots(*page, visit);
    DBM_RETURN_NOT_OK(buffer_->Unpin(pid, false));
    return walk;
  }

  size_t record_count() const { return record_count_; }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Page header: record count and free offset.
  static constexpr size_t kHeader = 4;
  /// Bytes after the header, shared by slot lengths and records.
  static constexpr size_t kPayload = kPageSize - kHeader;
  /// Maximum record payload a page can hold.
  static constexpr size_t kMaxRecord = kPayload - 2;

 private:
  static uint16_t GetU16(const Page& page, size_t off) {
    return static_cast<uint16_t>(page.bytes[off] |
                                 (page.bytes[off + 1] << 8));
  }
  static void PutU16(uint8_t* at, uint16_t v) {
    at[0] = static_cast<uint8_t>(v & 0xFF);
    at[1] = static_cast<uint8_t>(v >> 8);
  }

  /// The page AppendRecords is writing: pinned (page != nullptr) or none,
  /// with its header held here until Release writes it back.
  struct Tail {
    Page* page = nullptr;
    PageId id = kInvalidPage;
    uint16_t count = 0;
    size_t free_off = 0;
    bool wrote = false;
  };
  /// Pins the file's last page, if it has one.
  Status PinTail(Tail* tail);
  /// Allocates and pins a fresh (zero-filled) page and appends it to the
  /// file; its header starts empty in `tail`.
  Status OpenFreshPage(Tail* tail);
  /// Writes the header back and unpins the page (dirty iff a record was
  /// written to it); a no-op with nothing pinned.
  Status Release(Tail* tail);

  /// Walks `page`'s slot directory, calling `visit(slot, bytes, len)` for
  /// each record in slot order; `visit` returns false to stop early. The
  /// directory must satisfy free_offset ≤ kPageSize, every record must
  /// lie below free_offset, and the length chain of a full walk must end
  /// exactly at free_offset; otherwise the walk stops with DataLoss. The
  /// records before the malformed slot have been visited by then, but
  /// none ever reaches past free_offset.
  template <typename Visit>
  static Status WalkSlots(const Page& page, Visit&& visit) {
    const size_t count = GetU16(page, 0);
    const size_t free_off = GetU16(page, 2);
    if (free_off > kPageSize) {
      return Status::DataLoss("page " + std::to_string(page.id) +
                              ": free offset past the page end");
    }
    size_t off = kHeader;
    for (size_t s = 0; s < count; ++s) {
      if (off + 2 > free_off) {
        return Status::DataLoss("page " + std::to_string(page.id) +
                                ": slot directory overruns the free offset");
      }
      const size_t len = GetU16(page, off);
      off += 2;
      if (len > free_off - off) {
        return Status::DataLoss("page " + std::to_string(page.id) +
                                ": record overruns the free offset");
      }
      if (!visit(static_cast<uint16_t>(s), page.bytes.data() + off, len)) {
        return Status::OK();
      }
      off += len;
    }
    if (off != free_off) {
      return Status::DataLoss("page " + std::to_string(page.id) +
                              ": slot chain does not end at the free offset");
    }
    return Status::OK();
  }

  BufferManager* buffer_;
  DiskComponent* disk_;
  std::vector<PageId> pages_;
  size_t record_count_ = 0;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_RECORD_FILE_H_
