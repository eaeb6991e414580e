#include "storage/paged_relation.h"

#include <algorithm>
#include <cstring>

namespace dbm::storage {

using data::Tuple;
using data::Value;
using data::ValueType;

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

}  // namespace

std::vector<uint8_t> EncodeTuple(const Tuple& tuple) {
  std::vector<uint8_t> out;
  for (const Value& v : tuple.values) {
    out.push_back(static_cast<uint8_t>(data::TypeOf(v)));
    switch (data::TypeOf(v)) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        PutU64(&out, static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        double d = std::get<double>(v);
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(&out, bits);
        break;
      }
      case ValueType::kString: {
        const std::string& s = std::get<std::string>(v);
        PutU32(&out, static_cast<uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
        break;
      }
    }
  }
  return out;
}

Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t arity) {
  Tuple tuple;
  // Every value takes at least its type byte.
  tuple.values.reserve(std::min(arity, bytes.size()));
  DBM_RETURN_NOT_OK(DecodeRecord(
      bytes.data(), bytes.size(), arity, [&](size_t, const FieldView& f) {
        switch (f.type) {
          case ValueType::kNull:
            tuple.values.emplace_back();
            break;
          case ValueType::kInt:
            tuple.values.emplace_back(f.i);
            break;
          case ValueType::kDouble:
            tuple.values.emplace_back(f.d);
            break;
          case ValueType::kString:
            tuple.values.emplace_back(std::string(f.s));
            break;
        }
      }));
  return tuple;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Load(
    const data::Relation& rel, BufferManager* buffer, DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  auto paged = std::unique_ptr<PagedRelation>(
      new PagedRelation(rel.name(), rel.schema(), std::move(file)));
  for (const Tuple& row : rel.rows()) {
    DBM_RETURN_NOT_OK(paged->Append(row));
  }
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

Status PagedRelation::Append(const Tuple& tuple) {
  DBM_RETURN_NOT_OK(data::CheckTuple(schema_, tuple));
  std::vector<uint8_t> rec = EncodeTuple(tuple);
  DBM_RETURN_NOT_OK(file_->Append(rec).status());
  return Status::OK();
}

Status PagedRelation::Scan(
    const std::function<bool(const Tuple&)>& visitor) const {
  Status decode_error;
  DBM_RETURN_NOT_OK(file_->Scan(
      [&](const RecordId&, const std::vector<uint8_t>& rec) {
        auto tuple = DecodeTuple(rec, schema_.size());
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
                       DecodeTuple(*rec, schema_.size()));
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
