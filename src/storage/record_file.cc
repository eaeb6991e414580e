#include "storage/record_file.h"

#include <cstring>

namespace dbm::storage {

namespace {

void PutU16(Page* page, size_t off, uint16_t v) {
  page->bytes[off] = static_cast<uint8_t>(v & 0xFF);
  page->bytes[off + 1] = static_cast<uint8_t>(v >> 8);
}

}  // namespace

Result<RecordId> RecordFile::Append(const std::vector<uint8_t>& record) {
  if (record.size() > kMaxRecord) {
    return Status::InvalidArgument("record too large for a page");
  }
  const size_t need = 2 + record.size();

  PageId target = kInvalidPage;
  if (!pages_.empty()) {
    PageId tail = pages_.back();
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(tail));
    uint16_t free_off = GetU16(*page, 2);
    bool fits = free_off + need <= kPageSize;
    DBM_RETURN_NOT_OK(buffer_->Unpin(tail, false));
    if (fits) target = tail;
  }
  if (target == kInvalidPage) {
    target = disk_->Allocate();
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetFreshPage(target));
    PutU16(page, 0, 0);
    PutU16(page, 2, kHeader);
    DBM_RETURN_NOT_OK(buffer_->Unpin(target, true));
    pages_.push_back(target);
  }

  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(target));
  uint16_t count = GetU16(*page, 0);
  uint16_t free_off = GetU16(*page, 2);
  PutU16(page, free_off, static_cast<uint16_t>(record.size()));
  std::memcpy(page->bytes.data() + free_off + 2, record.data(),
              record.size());
  PutU16(page, 0, static_cast<uint16_t>(count + 1));
  PutU16(page, 2, static_cast<uint16_t>(free_off + need));
  DBM_RETURN_NOT_OK(buffer_->Unpin(target, true));
  ++record_count_;
  return RecordId{target, count};
}

Status RecordFile::Attach() {
  pages_.clear();
  record_count_ = 0;
  for (PageId pid = 0; pid < disk_->page_count(); ++pid) {
    size_t count = 0;
    Status walk = VisitPage(pid, [&](uint16_t, const uint8_t*, size_t) {
      ++count;
      return true;
    });
    // A torn slot or a malformed slot directory (both DataLoss) past the
    // prefix ends the relation — the torn-tail rule again — as does a
    // freshly allocated page a crash left empty. Anything else is a real
    // failure.
    if (walk.IsDataLoss() || (walk.ok() && count == 0)) break;
    DBM_RETURN_NOT_OK(walk);
    pages_.push_back(pid);
    record_count_ += count;
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> RecordFile::Read(const RecordId& id) {
  std::vector<uint8_t> out;
  bool found = false;
  // The walk runs to the end even after the slot is found: only a full
  // walk checks that the length chain ends at the free offset.
  DBM_RETURN_NOT_OK(VisitPage(
      id.page, [&](uint16_t slot, const uint8_t* bytes, size_t len) {
        if (slot == id.slot) {
          out.assign(bytes, bytes + len);
          found = true;
        }
        return true;
      }));
  if (!found) return Status::NotFound("slot out of range");
  return out;
}

Status RecordFile::Scan(
    const std::function<bool(const RecordId&, const std::vector<uint8_t>&)>&
        visitor) {
  for (PageId pid : pages_) {
    bool stop = false;
    DBM_RETURN_NOT_OK(VisitPage(
        pid, [&](uint16_t slot, const uint8_t* bytes, size_t len) {
          std::vector<uint8_t> rec(bytes, bytes + len);
          stop = !visitor(RecordId{pid, slot}, rec);
          return !stop;
        }));
    if (stop) break;
  }
  return Status::OK();
}

}  // namespace dbm::storage
