// Bounds-checked little-endian reads over one payload: a log frame's
// (fault/segment_log.h, storage/wal.h, obs/blackbox/format.h), a
// tagged-value record's (data/tuple_codec.h) or a serialised relation's
// (data::Relation::Deserialize). Every read returns false instead of
// running past the end.

#ifndef DBM_COMMON_PAYLOAD_READER_H_
#define DBM_COMMON_PAYLOAD_READER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dbm {

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : rest_(payload) {}

  template <typename T>
  bool Le(T* v) {
    if (rest_.size() < sizeof(T)) return false;
    uint64_t out = 0;
    // Unrolled, the byte-wise composition fuses into one load where the
    // native order is little-endian; as a loop, -O2 reads byte by byte.
    // Paged scans decode every value through here.
#pragma GCC unroll 8
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(rest_[i])) << (8 * i);
    }
    rest_.remove_prefix(sizeof(T));
    *v = static_cast<T>(out);
    return true;
  }
  bool Bytes(size_t n, std::string_view* out) {
    if (rest_.size() < n) return false;
    *out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return true;
  }
  /// Bytes not yet read.
  size_t remaining() const { return rest_.size(); }
  /// True once every payload byte has been read — a decoder that stops
  /// short has met a malformed payload.
  bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

}  // namespace dbm

#endif  // DBM_COMMON_PAYLOAD_READER_H_
