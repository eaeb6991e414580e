#include "obs/observatory.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "fault/log.h"
#include "obs/blackbox/log.h"
#include "obs/blackbox/reader.h"
#include "obs/health.h"
#include "obs/timeseries.h"
#include "query/executor.h"
#include "query/expr.h"
#include "query/operator.h"

namespace dbm::obs {

namespace {

// The newest samples per series that /obs/timeseries serves.
constexpr size_t kTimeSeriesTail = 32;

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted/dashed names
/// map onto '_'.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

/// A sample value as the Prometheus text format spells it: JsonNumber's
/// digits, and NaN, +Inf and -Inf where JSON can only say null.
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return JsonNumber(v);
}

std::string RenderPromLines(const std::vector<MetricSnapshot>& metrics) {
  std::string out;
  for (const MetricSnapshot& m : metrics) {
    const std::string name = PromName(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(m.count) + "\n";
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + PromNumber(m.value) + "\n";
        break;
      case MetricKind::kHistogram:
        out += "# TYPE " + name + " summary\n";
        out += name + "{quantile=\"0.5\"} " + PromNumber(m.p50) + "\n";
        out += name + "{quantile=\"0.9\"} " + PromNumber(m.p90) + "\n";
        out += name + "{quantile=\"0.99\"} " + PromNumber(m.p99) + "\n";
        out += name + "_sum " + PromNumber(m.sum) + "\n";
        out += name + "_count " + std::to_string(m.count) + "\n";
        break;
    }
  }
  return out;
}

}  // namespace

std::string PrometheusText(const Registry& registry) {
  return RenderPromLines(registry.Snapshot());
}

data::Relation ToRelation(const Table& table) {
  static constexpr data::ValueType kTypes[] = {
      data::ValueType::kInt, data::ValueType::kDouble,
      data::ValueType::kString};
  std::vector<data::Field> fields;
  for (const Column& c : table.columns) {
    fields.push_back({c.name, kTypes[static_cast<size_t>(c.type)]});
  }
  data::Relation rel(table.name, data::Schema(std::move(fields)));
  table.scan([&rel](std::vector<Cell> cells) {
    data::Tuple row;
    row.values.reserve(cells.size());
    for (Cell& cell : cells) {
      std::visit([&row](auto& v) { row.values.emplace_back(std::move(v)); },
                 cell);
    }
    rel.InsertUnchecked(std::move(row));
  });
  return rel;
}

// ---------------------------------------------------------------------------
// /obs/query
// ---------------------------------------------------------------------------

namespace {

/// `given`, or else the installed black box, flushed and read into
/// `*owned`: the live-process path to history when the caller did not
/// hand the Observatory a reader.
Result<const blackbox::TelemetryReader*> ResolveHistory(
    const blackbox::TelemetryReader* given,
    std::optional<blackbox::TelemetryReader>* owned) {
  if (given != nullptr) return given;
  blackbox::TelemetryLog* log = blackbox::TelemetryLog::Installed();
  if (log == nullptr) {
    return Status::NotFound(
        "no telemetry history (no reader configured and no TelemetryLog "
        "installed)");
  }
  // A dead flusher cannot flush — read whatever survived anyway; that is
  // the whole point of the black box.
  (void)log->Flush();
  DBM_ASSIGN_OR_RETURN(*owned,
                       blackbox::TelemetryReader::Open(log->options().dir));
  return &**owned;
}

Result<query::CmpOp> ParseOp(const std::string& op) {
  if (op == "=") return query::CmpOp::kEq;
  if (op == "!=") return query::CmpOp::kNe;
  if (op == "<") return query::CmpOp::kLt;
  if (op == "<=") return query::CmpOp::kLe;
  if (op == ">") return query::CmpOp::kGt;
  if (op == ">=") return query::CmpOp::kGe;
  return Status::ParseError("unknown operator '" + op +
                            "' (expected = != < <= > >=)");
}

/// Coerces the literal to the filtered column's declared type so the
/// comparison never mixes a string with a number.
Result<data::Value> CoerceLiteral(const data::Schema& schema,
                                  const std::string& column,
                                  const std::string& text) {
  DBM_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column));
  switch (schema.field(idx).type) {
    case data::ValueType::kInt:
      if (auto v = ParseNumber<int64_t>(text)) return data::Value{*v};
      return Status::ParseError("'" + text + "' is not an integer (column '" +
                                column + "')");
    case data::ValueType::kDouble:
      if (auto v = ParseNumber<double>(text)) return data::Value{*v};
      return Status::ParseError("'" + text + "' is not a number (column '" +
                                column + "')");
    default:
      return data::Value{text};
  }
}

std::string RenderValue(const data::Value& v) {
  switch (data::TypeOf(v)) {
    case data::ValueType::kNull: return "null";
    case data::ValueType::kInt:
      return std::to_string(std::get<int64_t>(v));
    case data::ValueType::kDouble: return JsonNumber(std::get<double>(v));
    case data::ValueType::kString:
      return "\"" + JsonEscape(std::get<std::string>(v)) + "\"";
  }
  return "null";
}

}  // namespace

Result<std::string> ObservatoryQuery(
    std::string_view q, const blackbox::TelemetryReader* history) {
  std::vector<std::string> tokens =
      Split(std::string(Trim(q)), ' ', /*skip_empty=*/true);
  if (tokens.empty()) {
    return Status::ParseError(
        "empty query (expected: <relation> [where <col> <op> <value>] "
        "[limit N])");
  }
  const std::string& rel_name = tokens[0];
  std::optional<blackbox::TelemetryReader> owned_history;
  const bool is_history = rel_name.rfind("history.", 0) == 0;
  std::vector<Table> tables;
  if (is_history) {
    DBM_ASSIGN_OR_RETURN(history, ResolveHistory(history, &owned_history));
    tables = blackbox::HistoryTables(*history);
  } else {
    tables = {MetricsTable(),       SpansTable(),    DecisionsTable(),
              fault::FaultsTable(), ProfilesTable(), LoopLatencyTable()};
  }
  auto table = std::find_if(tables.begin(), tables.end(),
                            [&](const Table& t) { return t.name == rel_name; });
  if (table == tables.end()) {
    std::vector<std::string> names;
    for (const Table& t : tables) names.push_back(t.name);
    return Status::ParseError("unknown relation '" + rel_name +
                              "' (expected " + Join(names, "|") +
                              (is_history ? ")" : " or history.*)"));
  }
  data::Relation rel = ToRelation(*table);

  query::OperatorPtr root = std::make_unique<query::MemSource>(&rel);
  size_t i = 1;
  if (i < tokens.size() && tokens[i] == "where") {
    if (i + 3 >= tokens.size()) {
      return Status::ParseError("where clause needs <col> <op> <value>");
    }
    const std::string& column = tokens[i + 1];
    DBM_ASSIGN_OR_RETURN(query::CmpOp op, ParseOp(tokens[i + 2]));
    DBM_ASSIGN_OR_RETURN(data::Value literal,
                         CoerceLiteral(rel.schema(), column, tokens[i + 3]));
    DBM_ASSIGN_OR_RETURN(query::ExprPtr col,
                         query::Col(rel.schema(), column));
    root = std::make_unique<query::FilterOp>(
        std::move(root),
        query::Compare(op, std::move(col), query::Lit(std::move(literal))));
    i += 4;
  }
  if (i < tokens.size() && tokens[i] == "limit") {
    std::optional<uint64_t> count;
    if (i + 1 < tokens.size()) count = ParseNumber<uint64_t>(tokens[i + 1]);
    if (!count.has_value()) {
      return Status::ParseError("limit needs a row count");
    }
    root = std::make_unique<query::LimitOp>(std::move(root), *count);
    i += 2;
  }
  if (i < tokens.size()) {
    return Status::ParseError("trailing tokens after '" + tokens[i - 1] +
                              "' (query: <relation> [where <col> <op> "
                              "<value>] [limit N])");
  }

  std::vector<data::Tuple> rows;
  DBM_RETURN_NOT_OK(query::Execute(root.get(), &rows).status());

  std::string out = "{\"relation\":\"" + JsonEscape(rel_name) + "\"";
  out += ",\"columns\":[";
  const data::Schema& schema = root->schema();
  for (size_t f = 0; f < schema.size(); ++f) {
    if (f > 0) out += ",";
    out += "\"" + JsonEscape(schema.field(f).name) + "\"";
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ",";
    out += "[";
    for (size_t v = 0; v < rows[r].values.size(); ++v) {
      if (v > 0) out += ",";
      out += RenderValue(rows[r].values[v]);
    }
    out += "]";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// /obs/history — the black box's crash-surviving, time-travelling view
// ---------------------------------------------------------------------------

namespace {

std::map<std::string, std::string> ParseParams(std::string_view qs) {
  std::map<std::string, std::string> out;
  for (const std::string& part :
       Split(std::string(qs), '&', /*skip_empty=*/true)) {
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      out[part] = "";
    } else {
      out[part.substr(0, eq)] = part.substr(eq + 1);
    }
  }
  return out;
}

/// The numeric parameter `key`, or `fallback` when it is absent or empty.
template <typename T>
Result<T> NumberParam(const std::map<std::string, std::string>& params,
                      const std::string& key, T fallback) {
  auto it = params.find(key);
  if (it == params.end() || it->second.empty()) return fallback;
  if (auto v = ParseNumber<T>(it->second)) return *v;
  return Status::InvalidArgument("/obs/history: bad " + key + "='" +
                                 it->second + "'");
}

std::string HistoryRecordJson(const blackbox::TelemetryRecord& r) {
  std::string out = "{\"kind\":\"";
  out += blackbox::RecordKindName(
      static_cast<blackbox::RecordKind>(r.kind));
  out += "\",\"at_us\":" + std::to_string(r.at_us);
  out += ",\"trace_id\":\"" + r.trace_id.ToHex() + "\"";
  out += ",\"name\":\"" + JsonEscape(r.name) + "\"";
  out += ",\"text\":\"" + JsonEscape(r.text) + "\"";
  out += ",\"extra\":\"" + JsonEscape(r.extra) + "\"";
  out += ",\"a\":" + JsonNumber(r.a) + ",\"b\":" + JsonNumber(r.b) +
         ",\"c\":" + JsonNumber(r.c) + ",\"d\":" + JsonNumber(r.d) + "}";
  return out;
}

std::string HistoryJson(const blackbox::TelemetryReader& reader,
                        int64_t from_us, int64_t to_us, size_t limit) {
  const blackbox::RecoveryReport& rep = reader.report();
  std::vector<blackbox::TelemetryRecord> slice =
      reader.Between(from_us, to_us);
  std::string out = "{\"history\":{";
  out += "\"dir\":\"" + JsonEscape(reader.dir()) + "\"";
  out += ",\"segments_scanned\":" + std::to_string(rep.segments_scanned);
  out += ",\"records_recovered\":" + std::to_string(rep.frames);
  out += ",\"bytes_scanned\":" + std::to_string(rep.bytes_scanned);
  out += std::string(",\"truncated\":") + (rep.truncated ? "true" : "false");
  if (rep.truncated) {
    out += ",\"truncated_segment\":\"" + JsonEscape(rep.truncated_segment) +
           "\"";
    out += ",\"truncated_offset\":" + std::to_string(rep.truncated_offset);
  }
  out += ",\"from_us\":" + std::to_string(from_us);
  out += ",\"to_us\":" + std::to_string(to_us);
  out += ",\"count\":" + std::to_string(slice.size());
  out += ",\"records\":[";
  size_t start = slice.size() > limit ? slice.size() - limit : 0;
  for (size_t i = start; i < slice.size(); ++i) {
    if (i > start) out += ",";
    out += HistoryRecordJson(slice[i]);
  }
  out += "]}}";
  return out;
}

/// ?fmt=prom: the gauge plane as of `to_us` — Prometheus text of every
/// bus metric's last recovered value at or before that instant.
std::string HistoryProm(const blackbox::TelemetryReader& reader,
                        int64_t to_us) {
  std::string out;
  for (const auto& [name, value] : reader.GaugesAsOf(to_us)) {
    const std::string prom = PromName("history.bus." + name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + PromNumber(value) + "\n";
  }
  return out;
}

/// ?fmt=collapsed: "kind;name count" lines over the range — flamegraph
/// fodder for "what did the black box spend its frames on".
std::string HistoryCollapsed(const blackbox::TelemetryReader& reader,
                             int64_t from_us, int64_t to_us) {
  std::map<std::string, uint64_t> counts;
  for (const blackbox::TelemetryRecord& r :
       reader.Between(from_us, to_us)) {
    std::string key = blackbox::RecordKindName(
        static_cast<blackbox::RecordKind>(r.kind));
    key += ";";
    key += r.name;
    ++counts[key];
  }
  std::string out;
  for (const auto& [key, n] : counts) {
    out += key + " " + std::to_string(n) + "\n";
  }
  return out;
}

}  // namespace

Result<std::string> ServeObservatory(
    std::string_view path, int64_t now_us,
    const blackbox::TelemetryReader* history) {
  std::string_view endpoint = path;
  std::string_view query_string;
  size_t qpos = path.find('?');
  if (qpos != std::string_view::npos) {
    endpoint = path.substr(0, qpos);
    query_string = path.substr(qpos + 1);
  }
  if (endpoint == "/obs/metrics") return PrometheusText();
  if (endpoint == "/obs/timeseries") {
    return "{\"timeseries\":" +
           TimeSeriesJson(TimeSeriesStore::Default(), kTimeSeriesTail) + "}";
  }
  if (endpoint == "/obs/decisions") {
    return "{\"decisions\":" + RowsJson(DecisionsTable()) + "}";
  }
  if (endpoint == "/obs/faults") {
    const fault::FaultLog& log = fault::FaultLog::Default();
    return "{\"faults\":" + RowsJson(fault::FaultsTable(log)) +
           ",\"dropped\":" + std::to_string(log.dropped()) + "}";
  }
  if (endpoint == "/obs/health") {
    return "{\"health\":" + HealthJson(now_us) + "}";
  }
  if (endpoint == "/obs/profile") {
    const ProfilePlane& plane = ProfilePlane::Default();
    if (query_string == "fmt=collapsed") return ProfilesCollapsed(plane);
    if (query_string == "fmt=prom") {
      // The Prometheus exposition narrowed to the profiling plane's own
      // metrics (profile.request.* histograms and record counters).
      std::vector<MetricSnapshot> metrics;
      for (MetricSnapshot& m : Registry::Default().Snapshot()) {
        if (m.name.rfind("profile.", 0) == 0) metrics.push_back(std::move(m));
      }
      return RenderPromLines(metrics);
    }
    if (!query_string.empty() && query_string != "fmt=json") {
      return Status::InvalidArgument(
          "/obs/profile supports ?fmt=json|prom|collapsed");
    }
    return "{\"profiles\":" + ProfilesJson(plane) + "}";
  }
  if (endpoint == "/obs/history") {
    std::map<std::string, std::string> params = ParseParams(query_string);
    const std::string fmt =
        params.count("fmt") ? params.at("fmt") : std::string("json");
    if (fmt != "json" && fmt != "prom" && fmt != "collapsed") {
      return Status::InvalidArgument(
          "/obs/history supports ?fmt=json|prom|collapsed");
    }
    std::optional<blackbox::TelemetryReader> owned;
    DBM_ASSIGN_OR_RETURN(history, ResolveHistory(history, &owned));
    DBM_ASSIGN_OR_RETURN(const int64_t from_us,
                         NumberParam<int64_t>(params, "from", 0));
    DBM_ASSIGN_OR_RETURN(
        const int64_t to_us,
        NumberParam<int64_t>(params, "to", history->LastAtUs() > now_us
                                               ? history->LastAtUs()
                                               : now_us));
    if (fmt == "prom") return HistoryProm(*history, to_us);
    if (fmt == "collapsed") {
      return HistoryCollapsed(*history, from_us, to_us);
    }
    DBM_ASSIGN_OR_RETURN(const uint64_t limit,
                         NumberParam<uint64_t>(params, "limit", 64));
    return HistoryJson(*history, from_us, to_us, limit);
  }
  if (endpoint == "/obs/flight") {
    // The on-demand trigger: dump the installed recorder's sidecar now
    // and tell the operator where it landed.
    DBM_RETURN_NOT_OK(TriggerFlightDump(now_us));
    return "{\"flight_dump\":{\"ok\":true,\"path\":\"" +
           JsonEscape(FlightRecorderPath()) + "\"}}";
  }
  if (endpoint == "/obs/query") {
    if (query_string.rfind("q=", 0) != 0) {
      return Status::InvalidArgument(
          "/obs/query expects ?q=<relation> [where ...] [limit N]");
    }
    return ObservatoryQuery(query_string.substr(2), history);
  }
  return Status::NotFound("no observatory endpoint '" +
                          std::string(endpoint) + "'");
}

}  // namespace dbm::obs
