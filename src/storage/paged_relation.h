// Relations materialised onto buffer-managed pages.
//
// The in-memory Relation is the convenient form; PagedRelation is the
// same data living in a RecordFile, so scans exercise the getpage path —
// queries run against the fine-grained storage components rather than a
// vector. Each tuple is one record in the tagged-value format
// (data/tuple_codec.h), the same bytes Relation::Serialize writes per
// row. Writes take one path: AppendBatch checks every tuple, then
// RecordFile::AppendRecords encodes them straight into the pinned tail
// page (EncodedSize/EncodeTo) — Append is a batch of one and Load one
// batch, so a bulk load makes one getpage per page. Reads decode with the
// codec's one parser: DecodeTuple builds a Tuple for point reads, and
// DecodePage runs DecodeRecord over every record of a pinned frame, so a
// paged scan loads a page with one getpage and no per-row copy — and
// callers never see the record format.

#ifndef DBM_STORAGE_PAGED_RELATION_H_
#define DBM_STORAGE_PAGED_RELATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "data/relation.h"
#include "data/tuple_codec.h"
#include "storage/record_file.h"

namespace dbm::storage {

/// One tuple's record bytes as a vector (data::EncodeTo), for callers
/// that want the bytes themselves (perfbench sizes rows with it); the
/// write path encodes straight into the frame instead.
std::vector<uint8_t> EncodeTuple(const data::Tuple& tuple);

class PagedRelation {
 public:
  /// Bulk-loads `rel` into a fresh record file over `buffer`/`disk`.
  static Result<std::unique_ptr<PagedRelation>> Load(
      const data::Relation& rel, BufferManager* buffer,
      DiskComponent* disk);

  /// Re-attaches to a relation already persisted on `disk` — the
  /// restart path, after storage::Recover() has replayed the WAL onto
  /// the page file. Rebuilds the page list and row count from the
  /// on-disk clean prefix; `name`/`schema` come from the caller (the
  /// catalog, in a full system).
  static Result<std::unique_ptr<PagedRelation>> Recover(
      std::string name, data::Schema schema, BufferManager* buffer,
      DiskComponent* disk);

  const std::string& name() const { return name_; }
  const data::Schema& schema() const { return schema_; }
  size_t rows() const { return file_->record_count(); }
  size_t pages() const { return file_->pages().size(); }

  /// Appends `tuples` in order (RecordFile::AppendRecords). Every tuple
  /// is type-checked (CheckTuple) and sized against the page first, so a
  /// batch that fails either check appends nothing; a buffer error later
  /// leaves the tuples before it appended.
  Status AppendBatch(std::span<const data::Tuple> tuples);

  /// Appends one tuple: a batch of one.
  Status Append(const data::Tuple& tuple) { return AppendBatch({&tuple, 1}); }

  /// Visits every tuple in order; visitor returns false to stop.
  Status Scan(const std::function<bool(const data::Tuple&)>& visitor) const;

  /// Cursor read for pull-based operators: the tuple at (page ordinal,
  /// slot), or nullopt when the slot is past the page's record count
  /// (advance to the next page). Errors on malformed data only.
  Result<std::optional<data::Tuple>> ReadAt(size_t page_ordinal,
                                            uint16_t slot) const;

  /// Page-at-a-time read for scans: pins page `page_ordinal` once and
  /// decodes every record on it straight from the frame (DecodeRecord at
  /// the schema's arity), calling `sink(column, field)` per value, row
  /// after row. Returns the number of records decoded, or
  /// InvalidArgument when `page_ordinal` >= pages(), or the first
  /// slot-directory (DataLoss) or decode (IoError) error.
  template <typename Sink>
  Result<size_t> DecodePage(size_t page_ordinal, Sink&& sink) const {
    if (page_ordinal >= pages()) {
      return Status::InvalidArgument(
          "page ordinal " + std::to_string(page_ordinal) + " past " +
          std::to_string(pages()) + " pages of " + name_);
    }
    size_t records = 0;
    Status decoded;
    DBM_RETURN_NOT_OK(file_->VisitPage(
        file_->pages()[page_ordinal],
        [&](uint16_t, const uint8_t* rec, size_t len) {
          decoded = data::DecodeRecord(rec, len, schema_.size(), sink);
          records += decoded.ok();
          return decoded.ok();
        }));
    DBM_RETURN_NOT_OK(decoded);
    return records;
  }

  /// Materialises back into an in-memory Relation.
  Result<data::Relation> ToRelation() const;

 private:
  PagedRelation(std::string name, data::Schema schema,
                std::unique_ptr<RecordFile> file)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        file_(std::move(file)) {}

  std::string name_;
  data::Schema schema_;
  std::unique_ptr<RecordFile> file_;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_PAGED_RELATION_H_
