// Relations materialised onto buffer-managed pages.
//
// The in-memory Relation is the convenient form; PagedRelation is the
// same data living in a RecordFile, so scans exercise the getpage path —
// queries run against the fine-grained storage components rather than a
// vector. Tuples are encoded per-row with the same tagged-value format
// the Relation serialiser uses, and DecodeRecord is that format's one
// parser: DecodeTuple builds a Tuple on it for point reads, and
// DecodePage runs it over every record of a pinned frame, so a paged scan
// loads a page with one getpage and no per-row copy — and callers never
// see the record format.

#ifndef DBM_STORAGE_PAGED_RELATION_H_
#define DBM_STORAGE_PAGED_RELATION_H_

#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "data/relation.h"
#include "fault/segment_log.h"
#include "storage/record_file.h"

namespace dbm::storage {

/// Encodes one tuple (schema-less tagged values): per value a type byte
/// (data::ValueType), then nothing for null, a little-endian u64 for int
/// and double, or a little-endian u32 length and the bytes for a string.
std::vector<uint8_t> EncodeTuple(const data::Tuple& tuple);

/// One decoded value: `type` says which payload is live (the others stay
/// zero). A string payload views the record bytes and lives only as long
/// as they do.
struct FieldView {
  data::ValueType type = data::ValueType::kNull;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

/// The one parser of the tagged-value format: decodes `arity` values from
/// the record bytes [rec, rec + len), calling `sink(column, field)` once
/// per value in column order. A truncated value, an unknown type tag or
/// bytes left over after the last value is IoError; the values before it
/// have already reached the sink by then.
template <typename Sink>
Status DecodeRecord(const uint8_t* rec, size_t len, size_t arity,
                    Sink&& sink) {
  using data::ValueType;
  fault::PayloadReader in({reinterpret_cast<const char*>(rec), len});
  for (size_t c = 0; c < arity; ++c) {
    uint8_t tag = 0;
    if (!in.Le(&tag)) return Status::IoError("truncated tuple");
    FieldView f;
    f.type = static_cast<ValueType>(tag);
    switch (f.type) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        if (!in.Le(&f.i)) return Status::IoError("truncated u64");
        break;
      case ValueType::kDouble: {
        uint64_t bits = 0;
        if (!in.Le(&bits)) return Status::IoError("truncated u64");
        f.d = std::bit_cast<double>(bits);
        break;
      }
      case ValueType::kString: {
        uint32_t n = 0;
        if (!in.Le(&n)) return Status::IoError("truncated u32");
        if (!in.Bytes(n, &f.s)) {
          return Status::IoError("truncated string value");
        }
        break;
      }
      default:
        return Status::IoError("unknown value type tag " +
                               std::to_string(tag));
    }
    sink(c, f);
  }
  if (!in.done()) return Status::IoError("trailing bytes after tuple");
  return Status::OK();
}

/// Decodes a tuple with `arity` values (DecodeRecord into Values).
Result<data::Tuple> DecodeTuple(const std::vector<uint8_t>& bytes,
                                size_t arity);

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

  /// Appends one (type-checked) tuple.
  Status Append(const data::Tuple& tuple);

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
          decoded = DecodeRecord(rec, len, schema_.size(), sink);
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
