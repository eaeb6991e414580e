#include "data/tuple_codec.h"

#include <algorithm>
#include <cstring>

namespace dbm::data {

namespace {

template <typename T>
uint8_t* PutLe(uint8_t* dst, T v) {
  const uint64_t bits = static_cast<uint64_t>(v);
  // Unrolled, the byte stores merge into one where the native order is
  // little-endian (the mirror of PayloadReader::Le).
#pragma GCC unroll 8
  for (size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  return dst + sizeof(T);
}

}  // namespace

size_t EncodedSize(const Tuple& tuple) {
  size_t bytes = 0;
  for (const Value& v : tuple.values) {
    switch (TypeOf(v)) {
      case ValueType::kNull:
        bytes += 1;
        break;
      case ValueType::kInt:
      case ValueType::kDouble:
        bytes += 1 + 8;
        break;
      case ValueType::kString:
        bytes += 1 + 4 + std::get<std::string>(v).size();
        break;
    }
  }
  return bytes;
}

uint8_t* EncodeTo(const Tuple& tuple, uint8_t* dst) {
  for (const Value& v : tuple.values) {
    const ValueType type = TypeOf(v);
    *dst++ = static_cast<uint8_t>(type);
    switch (type) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        dst = PutLe(dst, static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case ValueType::kDouble:
        dst = PutLe(dst, std::bit_cast<uint64_t>(std::get<double>(v)));
        break;
      case ValueType::kString: {
        const std::string& s = std::get<std::string>(v);
        dst = PutLe(dst, static_cast<uint32_t>(s.size()));
        std::memcpy(dst, s.data(), s.size());
        dst += s.size();
        break;
      }
    }
  }
  return dst;
}

Value ToValue(const FieldView& f) {
  switch (f.type) {
    case ValueType::kInt:
      return f.i;
    case ValueType::kDouble:
      return f.d;
    case ValueType::kString:
      return std::string(f.s);
    case ValueType::kNull:
      break;
  }
  return Value{};
}

Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t arity) {
  Tuple tuple;
  // Every value takes at least its type byte.
  tuple.values.reserve(std::min(arity, bytes.size()));
  DBM_RETURN_NOT_OK(DecodeRecord(
      bytes.data(), bytes.size(), arity,
      [&](size_t, const FieldView& f) { tuple.values.push_back(ToValue(f)); }));
  return tuple;
}

}  // namespace dbm::data
