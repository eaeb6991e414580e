// The tagged-value row codec: the one writer and the one parser of the
// byte format a tuple takes on a page (storage::PagedRelation) and in a
// serialised relation (Relation::Serialize / Deserialize).
//
// Per value, a type byte (ValueType), then nothing for null, a
// little-endian u64 for int and double (the double's bit pattern), or a
// little-endian u32 length and the bytes for a string. The format carries
// no arity and no length: a page's slot directory bounds each record, and
// a serialised relation's schema gives the arity, its rows following one
// another with no prefix.
//
// The writer is a pair — EncodedSize, then EncodeTo into a buffer of that
// size — so a caller can encode straight into a pinned page frame
// (storage::RecordFile::AppendRecords) or into one reserved vector.

#ifndef DBM_DATA_TUPLE_CODEC_H_
#define DBM_DATA_TUPLE_CODEC_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/payload_reader.h"
#include "common/result.h"
#include "data/value.h"

namespace dbm::data {

/// Bytes EncodeTo writes for `tuple`.
size_t EncodedSize(const Tuple& tuple);

/// Writes `tuple`'s encoding, exactly EncodedSize(tuple) bytes, at `dst`
/// and returns the byte past the last one written.
uint8_t* EncodeTo(const Tuple& tuple, uint8_t* dst);

/// One decoded value: `type` says which payload is live (the others stay
/// zero). A string payload views the encoded bytes and lives only as long
/// as they do.
struct FieldView {
  ValueType type = ValueType::kNull;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

/// The owning Value a field view holds (copies a string payload).
Value ToValue(const FieldView& f);

/// The parser, prefix form: decodes `arity` values from the front of
/// [rec, rec + len), calling `sink(column, field)` once per value in
/// column order, and sets *used to the bytes they took; any bytes after
/// them are the caller's. A truncated value or an unknown type tag is
/// IoError; the values before it have already reached the sink by then.
template <typename Sink>
Status DecodeValues(const uint8_t* rec, size_t len, size_t arity, Sink&& sink,
                    size_t* used) {
  PayloadReader in({reinterpret_cast<const char*>(rec), len});
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
  *used = len - in.remaining();
  return Status::OK();
}

/// The parser over one whole record — a page slot's bytes: DecodeValues,
/// and bytes left over after the last value are IoError too.
template <typename Sink>
Status DecodeRecord(const uint8_t* rec, size_t len, size_t arity,
                    Sink&& sink) {
  size_t used = 0;
  DBM_RETURN_NOT_OK(DecodeValues(rec, len, arity, sink, &used));
  if (used != len) return Status::IoError("trailing bytes after tuple");
  return Status::OK();
}

/// Decodes a record of `arity` values into a Tuple (DecodeRecord).
Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t arity);

}  // namespace dbm::data

#endif  // DBM_DATA_TUPLE_CODEC_H_
