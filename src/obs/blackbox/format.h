// The black box's wire format: the shared segment log's frames
// (fault/segment_log.h) under the "DBMTELM1" magic, one TelemetryRecord
// per payload.
//
// The payload flattens a TelemetryRecord with length-prefixed text fields
// so short records (most metric samples) stay short on disk. Decoding is
// defensive by construction: a payload that is malformed is a *torn
// tail* exactly like a short header or a CRC mismatch — the reader
// truncates there and keeps everything before it. That single rule is the
// whole crash-recovery story.

#ifndef DBM_OBS_BLACKBOX_FORMAT_H_
#define DBM_OBS_BLACKBOX_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/segment_log.h"
#include "obs/blackbox/record.h"

namespace dbm::obs::blackbox {

/// The black box's segment files. A payload longer than 512 bytes on
/// disk is corruption, not a record.
inline constexpr fault::SegmentFormat kTelemetryFormat{"telem-", "DBMTELM1",
                                                       1, 512};

/// Appends one complete frame (header + payload) for `rec` to *out.
void EncodeFrame(const TelemetryRecord& rec, std::string* out);

/// Decodes the frame at data[0..n). On success fills *rec, sets
/// *frame_bytes to the full frame size and returns true. Returns false
/// on a torn or corrupt frame.
bool DecodeFrame(const uint8_t* data, size_t n, TelemetryRecord* rec,
                 size_t* frame_bytes);

/// The scanner's view of telemetry frames: a payload that fails to
/// decode is torn; each one that decodes is appended to *out (when out
/// is not null).
fault::FrameFn TelemetryFrames(std::vector<TelemetryRecord>* out);

}  // namespace dbm::obs::blackbox

#endif  // DBM_OBS_BLACKBOX_FORMAT_H_
