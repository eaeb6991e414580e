#include "storage/record_file.h"

#include <algorithm>

namespace dbm::storage {

Result<RecordId> RecordFile::Append(const std::vector<uint8_t>& record) {
  return AppendRecords(
      1, [&](size_t) { return record.size(); },
      [&](size_t, uint8_t* dst) {
        std::copy(record.begin(), record.end(), dst);
      });
}

Status RecordFile::PinTail(Tail* tail) {
  if (pages_.empty()) return Status::OK();
  const PageId id = pages_.back();
  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(id));
  *tail = Tail{page, id, GetU16(*page, 0), GetU16(*page, 2), false};
  return Status::OK();
}

Status RecordFile::OpenFreshPage(Tail* tail) {
  const PageId id = disk_->Allocate();
  if (id == kInvalidPage) {
    return Status::IoError("disk cannot allocate a page");
  }
  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetFreshPage(id));
  pages_.push_back(id);
  *tail = Tail{page, id, 0, kHeader, false};
  return Status::OK();
}

Status RecordFile::Release(Tail* tail) {
  if (tail->page == nullptr) return Status::OK();
  if (tail->wrote) {
    PutU16(tail->page->bytes.data(), tail->count);
    PutU16(tail->page->bytes.data() + 2,
           static_cast<uint16_t>(tail->free_off));
  }
  const Tail released = *tail;
  *tail = Tail{};
  return buffer_->Unpin(released.id, released.wrote);
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
