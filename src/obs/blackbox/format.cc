#include "obs/blackbox/format.h"

#include <bit>
#include <cstring>

namespace dbm::obs::blackbox {

namespace {

/// Length-prefixed text field (u8 length; the in-record fields are all
/// shorter than 256 including the terminator).
void PutText(std::string* out, const char* s, size_t cap) {
  size_t n = ::strnlen(s, cap);
  fault::PutLe(out, static_cast<uint8_t>(n));
  out->append(s, n);
}

bool GetText(fault::PayloadReader* in, char* dst, size_t cap) {
  uint8_t len = 0;
  std::string_view text;
  if (!in->Le(&len) || len >= cap || !in->Bytes(len, &text)) return false;
  std::memcpy(dst, text.data(), len);
  dst[len] = '\0';
  return true;
}

bool GetDouble(fault::PayloadReader* in, double* v) {
  uint64_t bits = 0;
  if (!in->Le(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool DecodePayload(std::string_view payload, TelemetryRecord* rec) {
  fault::PayloadReader in(payload);
  TelemetryRecord out;
  uint64_t at = 0;
  if (!in.Le(&out.kind) || !in.Le(&out.trace_id.hi) ||
      !in.Le(&out.trace_id.lo) || !in.Le(&at) || !GetDouble(&in, &out.a) ||
      !GetDouble(&in, &out.b) || !GetDouble(&in, &out.c) ||
      !GetDouble(&in, &out.d) || !GetText(&in, out.name, sizeof(out.name)) ||
      !GetText(&in, out.text, sizeof(out.text)) ||
      !GetText(&in, out.extra, sizeof(out.extra)) || !in.done()) {
    return false;
  }
  out.at_us = static_cast<int64_t>(at);
  *rec = out;
  return true;
}

}  // namespace

void EncodeFrame(const TelemetryRecord& rec, std::string* out) {
  const size_t at = fault::BeginFrame(out);
  fault::PutLe(out, rec.kind);
  fault::PutLe(out, rec.trace_id.hi);
  fault::PutLe(out, rec.trace_id.lo);
  fault::PutLe(out, static_cast<uint64_t>(rec.at_us));
  for (double v : {rec.a, rec.b, rec.c, rec.d}) {
    fault::PutLe(out, std::bit_cast<uint64_t>(v));
  }
  PutText(out, rec.name, sizeof(rec.name));
  PutText(out, rec.text, sizeof(rec.text));
  PutText(out, rec.extra, sizeof(rec.extra));
  fault::EndFrame(out, at);
}

bool DecodeFrame(const uint8_t* data, size_t n, TelemetryRecord* rec,
                 size_t* frame_bytes) {
  std::string_view payload;
  const size_t bytes = fault::ParseFrame(kTelemetryFormat, data, n, &payload);
  if (bytes == 0 || !DecodePayload(payload, rec)) return false;
  *frame_bytes = bytes;
  return true;
}

fault::FrameFn TelemetryFrames(std::vector<TelemetryRecord>* out) {
  return [out](std::string_view payload, const std::string&, uint64_t*) {
    TelemetryRecord rec;
    if (!DecodePayload(payload, &rec)) return fault::ScanStep::kTorn;
    if (out != nullptr) out->push_back(rec);
    return fault::ScanStep::kNext;
  };
}

}  // namespace dbm::obs::blackbox
