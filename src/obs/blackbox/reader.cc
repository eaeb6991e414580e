#include "obs/blackbox/reader.h"

#include <filesystem>

#include "obs/blackbox/format.h"

namespace dbm::obs::blackbox {

Result<TelemetryReader> TelemetryReader::Open(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("no telemetry directory '" + dir + "'");
  }
  TelemetryReader reader;
  reader.dir_ = dir;
  DBM_RETURN_NOT_OK(fault::ScanSegments(kTelemetryFormat, dir,
                                        TelemetryFrames(&reader.records_),
                                        &reader.report_));
  if (reader.report_.segments_scanned == 0) {
    return Status::NotFound("no telemetry segments under '" + dir + "'");
  }
  return reader;
}

std::vector<TelemetryRecord> TelemetryReader::Between(int64_t from_us,
                                                      int64_t to_us) const {
  std::vector<TelemetryRecord> out;
  for (const TelemetryRecord& rec : records_) {
    if (rec.at_us >= from_us && rec.at_us <= to_us) out.push_back(rec);
  }
  return out;
}

std::map<std::string, double> TelemetryReader::GaugesAsOf(
    int64_t at_us) const {
  std::map<std::string, double> out;
  for (const TelemetryRecord& rec : records_) {
    if (rec.kind != static_cast<uint8_t>(RecordKind::kMetric)) continue;
    if (rec.at_us > at_us) continue;
    out[rec.name] = rec.a;  // append order: the last write at/before wins
  }
  return out;
}

int64_t TelemetryReader::LastAtUs() const {
  int64_t last = 0;
  for (const TelemetryRecord& rec : records_) {
    if (rec.at_us > last) last = rec.at_us;
  }
  return last;
}

}  // namespace dbm::obs::blackbox
