#include "storage/paged_relation.h"

namespace dbm::storage {

using data::Tuple;

std::vector<uint8_t> EncodeTuple(const Tuple& tuple) {
  std::vector<uint8_t> out(data::EncodedSize(tuple));
  data::EncodeTo(tuple, out.data());
  return out;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Load(
    const data::Relation& rel, BufferManager* buffer, DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  auto paged = std::unique_ptr<PagedRelation>(
      new PagedRelation(rel.name(), rel.schema(), std::move(file)));
  DBM_RETURN_NOT_OK(paged->AppendBatch(rel.rows()));
  return paged;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Recover(
    std::string name, data::Schema schema, BufferManager* buffer,
    DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  DBM_RETURN_NOT_OK(file->Attach());
  return std::unique_ptr<PagedRelation>(new PagedRelation(
      std::move(name), std::move(schema), std::move(file)));
}

Status PagedRelation::AppendBatch(std::span<const Tuple> tuples) {
  for (const Tuple& t : tuples) {
    DBM_RETURN_NOT_OK(data::CheckTuple(schema_, t));
    if (data::EncodedSize(t) > RecordFile::kMaxRecord) {
      return Status::InvalidArgument("record too large for a page");
    }
  }
  return file_
      ->AppendRecords(
          tuples.size(),
          [&](size_t i) { return data::EncodedSize(tuples[i]); },
          [&](size_t i, uint8_t* dst) { data::EncodeTo(tuples[i], dst); })
      .status();
}

Status PagedRelation::Scan(
    const std::function<bool(const Tuple&)>& visitor) const {
  Status decode_error;
  DBM_RETURN_NOT_OK(file_->Scan(
      [&](const RecordId&, const std::vector<uint8_t>& rec) {
        auto tuple = data::DecodeTuple(rec, schema_.size());
        if (!tuple.ok()) {
          decode_error = tuple.status();
          return false;
        }
        return visitor(*tuple);
      }));
  return decode_error;
}

Result<std::optional<data::Tuple>> PagedRelation::ReadAt(
    size_t page_ordinal, uint16_t slot) const {
  if (page_ordinal >= file_->pages().size()) {
    return std::optional<data::Tuple>{};
  }
  RecordId id{file_->pages()[page_ordinal], slot};
  auto rec = file_->Read(id);
  if (!rec.ok()) {
    if (rec.status().IsNotFound()) return std::optional<data::Tuple>{};
    return rec.status();
  }
  DBM_ASSIGN_OR_RETURN(data::Tuple tuple,
                       data::DecodeTuple(*rec, schema_.size()));
  return std::optional<data::Tuple>(std::move(tuple));
}

Result<data::Relation> PagedRelation::ToRelation() const {
  data::Relation rel(name_, schema_);
  DBM_RETURN_NOT_OK(Scan([&](const Tuple& t) {
    rel.InsertUnchecked(t);
    return true;
  }));
  return rel;
}

}  // namespace dbm::storage
