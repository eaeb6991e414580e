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

namespace {

/// One history table: `columns` after at_us and before trace_id, each
/// row built by `cells` from one record of `kind`.
Table HistoryTable(const TelemetryReader& reader, const char* name,
                   RecordKind kind, std::vector<Column> columns,
                   std::vector<Cell> (*cells)(const TelemetryRecord&)) {
  columns.insert(columns.begin(), {"at_us", ColumnType::kInt});
  columns.push_back({"trace_id", ColumnType::kString});
  return {name, std::move(columns),
          [&reader, kind, cells](const RowSink& row) {
            for (const TelemetryRecord& r : reader.records()) {
              if (r.kind != static_cast<uint8_t>(kind)) continue;
              std::vector<Cell> out = cells(r);
              out.insert(out.begin(), Cell{r.at_us});
              out.push_back(r.trace_id.ToHex());
              row(std::move(out));
            }
          }};
}

Cell Int(double v) { return static_cast<int64_t>(v); }

}  // namespace

std::vector<Table> HistoryTables(const TelemetryReader& reader) {
  constexpr ColumnType kInt = ColumnType::kInt;
  constexpr ColumnType kString = ColumnType::kString;
  return {
      HistoryTable(reader, "history.metrics", RecordKind::kMetric,
                   {{"name", kString},
                    {"value", ColumnType::kDouble},
                    {"publish_seq", kInt}},
                   [](const TelemetryRecord& r) -> std::vector<Cell> {
                     return {std::string(r.name), r.a, Int(r.b)};
                   }),
      HistoryTable(reader, "history.spans", RecordKind::kSpan,
                   {{"name", kString},
                    {"category", kString},
                    {"span_id", kInt},
                    {"parent_span_id", kInt},
                    {"sim_dur", kInt}},
                   [](const TelemetryRecord& r) -> std::vector<Cell> {
                     return {std::string(r.name), std::string(r.text),
                             Int(r.a), Int(r.b), Int(r.c)};
                   }),
      HistoryTable(reader, "history.decisions", RecordKind::kDecision,
                   {{"constraint_id", kInt},
                    {"subject", kString},
                    {"rule", kString},
                    {"action", kString}},
                   [](const TelemetryRecord& r) -> std::vector<Cell> {
                     return {Int(r.a), std::string(r.name),
                             std::string(r.text), std::string(r.extra)};
                   }),
      HistoryTable(reader, "history.faults", RecordKind::kFault,
                   {{"kind", kString}, {"point", kString}, {"detail", kString}},
                   [](const TelemetryRecord& r) -> std::vector<Cell> {
                     return {std::string(r.extra), std::string(r.name),
                             std::string(r.text)};
                   }),
      HistoryTable(reader, "history.profiles", RecordKind::kProfile,
                   {{"resource", kString},
                    {"queue_us", kInt},
                    {"dispatch_us", kInt},
                    {"exec_us", kInt},
                    {"total_us", kInt}},
                   [](const TelemetryRecord& r) -> std::vector<Cell> {
                     return {std::string(r.name), Int(r.a), Int(r.b),
                             Int(r.c), Int(r.d)};
                   }),
  };
}

}  // namespace dbm::obs::blackbox
