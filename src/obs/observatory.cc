#include "obs/observatory.h"

#include <charconv>
#include <map>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "obs/blackbox/history_table.h"
#include "obs/blackbox/log.h"
#include "obs/blackbox/reader.h"
#include "obs/fault_table.h"
#include "obs/metrics_table.h"
#include "obs/profile_table.h"
#include "obs/trace_table.h"
#include "query/executor.h"
#include "query/expr.h"
#include "query/operator.h"

namespace dbm::obs {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

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

}  // namespace

namespace {

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
        out += name + " " + Num(m.value) + "\n";
        break;
      case MetricKind::kHistogram:
        out += "# TYPE " + name + " summary\n";
        out += name + "{quantile=\"0.5\"} " + Num(m.p50) + "\n";
        out += name + "{quantile=\"0.9\"} " + Num(m.p90) + "\n";
        out += name + "{quantile=\"0.99\"} " + Num(m.p99) + "\n";
        out += name + "_sum " + Num(m.sum) + "\n";
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

std::string TimeSeriesJson(const TimeSeriesStore& store, size_t tail) {
  std::string out = "{\"timeseries\":[";
  bool first = true;
  for (const TimeSeries* ts : store.All()) {
    std::vector<TsSample> samples = ts->Snapshot();
    if (samples.size() > tail) {
      samples.erase(samples.begin(),
                    samples.end() - static_cast<ptrdiff_t>(tail));
    }
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(ts->name()) + "\"";
    out += ",\"total\":" + std::to_string(ts->total());
    out += ",\"samples\":[";
    for (size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out += ",";
      out += "[" + std::to_string(samples[i].at_us) + "," +
             Num(samples[i].value) + "]";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string DecisionsJson(const Tracer& tracer) {
  std::string out = "{\"decisions\":[";
  bool first = true;
  for (const DecisionRecord& d : tracer.Decisions()) {
    if (!first) out += ",";
    first = false;
    out += "{\"trace_id\":\"" + d.trace_id.ToHex() + "\"";
    out += ",\"span_id\":" + std::to_string(d.span_id);
    out += ",\"at_sim_us\":" + std::to_string(d.at_sim_us);
    out += ",\"constraint_id\":" + std::to_string(d.constraint_id);
    out += ",\"subject\":\"" + JsonEscape(d.subject) + "\"";
    out += ",\"rule\":\"" + JsonEscape(d.rule) + "\"";
    out += ",\"action\":\"" + JsonEscape(d.action) + "\"";
    out += ",\"gauges\":[";
    for (int32_t i = 0; i < d.gauge_count; ++i) {
      if (i > 0) out += ",";
      out += "{\"metric\":\"" + JsonEscape(d.gauges[i].metric) +
             "\",\"value\":" + Num(d.gauges[i].value) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string FaultsJson(const fault::FaultLog& log) {
  std::string out = "{\"faults\":[";
  bool first = true;
  for (const fault::FaultEvent& e : log.Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"trace_id\":\"" + e.trace_id.ToHex() + "\"";
    out += ",\"span_id\":" + std::to_string(e.span_id);
    out += ",\"at_sim_us\":" + std::to_string(e.at_sim_us);
    out += std::string(",\"kind\":\"") + fault::FaultEventKindName(e.kind) +
           "\"";
    out += ",\"point\":\"" + JsonEscape(e.point) + "\"";
    out += ",\"detail\":\"" + JsonEscape(e.detail) + "\"}";
  }
  out += "],\"dropped\":" + std::to_string(log.dropped()) + "}";
  return out;
}

std::string HealthJson(int64_t now_us, const LoopHealth& health) {
  std::vector<LoopHealth::Verdict> verdicts = health.Verdicts(now_us);
  bool healthy = true;
  for (const LoopHealth::Verdict& v : verdicts) {
    if (v.stale) healthy = false;
  }
  std::string out = "{\"health\":{";
  out += "\"at_us\":" + std::to_string(now_us);
  out += std::string(",\"healthy\":") + (healthy ? "true" : "false");
  out += ",\"gauges\":[";
  bool first = true;
  for (const LoopHealth::Verdict& v : verdicts) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(v.name) + "\"";
    out += std::string(",\"stale\":") + (v.stale ? "true" : "false");
    out += ",\"age_us\":" + std::to_string(v.age_us);
    out += ",\"period_us\":" + std::to_string(v.period_us);
    out += ",\"samples\":" + std::to_string(v.samples) + "}";
  }
  out += "],\"loop_latency\":{";
  std::vector<LoopLatencyRecord> lats = health.LoopLatencies();
  out += "\"count\":" + std::to_string(lats.size());
  out += ",\"last_us\":" +
         std::to_string(lats.empty() ? 0 : lats.back().latency_us);
  out += ",\"records\":[";
  size_t start = lats.size() > 16 ? lats.size() - 16 : 0;
  for (size_t i = start; i < lats.size(); ++i) {
    if (i > start) out += ",";
    out += "{\"trace_id\":\"" + lats[i].trace_id.ToHex() + "\"";
    out += ",\"constraint_id\":" + std::to_string(lats[i].constraint_id);
    out += ",\"at_sim_us\":" + std::to_string(lats[i].at_sim_us);
    out += ",\"latency_us\":" + std::to_string(lats[i].latency_us) + "}";
  }
  out += "]}}}";
  return out;
}

// ---------------------------------------------------------------------------
// /obs/query
// ---------------------------------------------------------------------------

namespace {

/// Flush-and-read the installed black box: the live-process path to
/// history when the caller did not hand the Observatory a reader.
Result<blackbox::TelemetryReader> OpenInstalledHistory() {
  blackbox::TelemetryLog* log = blackbox::TelemetryLog::Installed();
  if (log == nullptr) {
    return Status::NotFound(
        "no telemetry history (no reader configured and no TelemetryLog "
        "installed)");
  }
  // A dead flusher cannot flush — read whatever survived anyway; that is
  // the whole point of the black box.
  (void)log->Flush();
  return blackbox::TelemetryReader::Open(log->options().dir);
}

/// Parses the whole of `text` as a T: nullopt when it is empty, malformed,
/// out of T's range or followed by anything else. The request string is
/// outside input, so a number that only half parses is an error.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
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
    case data::ValueType::kDouble: return Num(std::get<double>(v));
    case data::ValueType::kString:
      return "\"" + JsonEscape(std::get<std::string>(v)) + "\"";
  }
  return "null";
}

}  // namespace

Result<std::string> ObservatoryQuery(std::string_view q,
                                     const ObservatoryOptions& options) {
  const Registry& registry =
      options.registry != nullptr ? *options.registry : Registry::Default();
  const Tracer& tracer =
      options.tracer != nullptr ? *options.tracer : Tracer::Default();

  std::vector<std::string> tokens =
      Split(std::string(Trim(q)), ' ', /*skip_empty=*/true);
  if (tokens.empty()) {
    return Status::ParseError(
        "empty query (expected: <relation> [where <col> <op> <value>] "
        "[limit N])");
  }
  const fault::FaultLog& fault_log = options.fault_log != nullptr
                                         ? *options.fault_log
                                         : fault::FaultLog::Default();
  const std::string& rel_name = tokens[0];
  data::Relation rel;
  std::optional<blackbox::TelemetryReader> owned_history;
  if (rel_name == "metrics") {
    rel = MetricsRelation(registry);
  } else if (rel_name == "spans") {
    rel = SpansRelation(tracer);
  } else if (rel_name == "decisions") {
    rel = DecisionsRelation(tracer);
  } else if (rel_name == "faults") {
    rel = FaultsRelation(fault_log);
  } else if (rel_name == "profiles") {
    rel = ProfilesRelation(options.profiles != nullptr
                               ? *options.profiles
                               : ProfilePlane::Default());
  } else if (rel_name.rfind("history.", 0) == 0) {
    const blackbox::TelemetryReader* history = options.history;
    if (history == nullptr) {
      DBM_ASSIGN_OR_RETURN(blackbox::TelemetryReader opened,
                           OpenInstalledHistory());
      owned_history = std::move(opened);
      history = &*owned_history;
    }
    const std::string kind = rel_name.substr(8);
    if (kind == "metrics") {
      rel = blackbox::HistoryMetricsRelation(*history, rel_name);
    } else if (kind == "spans") {
      rel = blackbox::HistorySpansRelation(*history, rel_name);
    } else if (kind == "decisions") {
      rel = blackbox::HistoryDecisionsRelation(*history, rel_name);
    } else if (kind == "faults") {
      rel = blackbox::HistoryFaultsRelation(*history, rel_name);
    } else if (kind == "profiles") {
      rel = blackbox::HistoryProfilesRelation(*history, rel_name);
    } else {
      return Status::ParseError(
          "unknown history relation '" + rel_name +
          "' (expected history.{metrics|spans|decisions|faults|profiles})");
    }
  } else {
    return Status::ParseError(
        "unknown relation '" + rel_name +
        "' (expected metrics|spans|decisions|faults|profiles or "
        "history.*)");
  }

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
  out += ",\"a\":" + Num(r.a) + ",\"b\":" + Num(r.b) + ",\"c\":" +
         Num(r.c) + ",\"d\":" + Num(r.d) + "}";
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
    out += prom + " " + Num(value) + "\n";
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

Result<std::string> ServeObservatory(std::string_view path, int64_t now_us,
                                     const ObservatoryOptions& options) {
  const Registry& registry =
      options.registry != nullptr ? *options.registry : Registry::Default();
  const Tracer& tracer =
      options.tracer != nullptr ? *options.tracer : Tracer::Default();
  const TimeSeriesStore& store =
      options.store != nullptr ? *options.store : TimeSeriesStore::Default();
  const LoopHealth& health =
      options.health != nullptr ? *options.health : LoopHealth::Default();

  std::string_view endpoint = path;
  std::string_view query_string;
  size_t qpos = path.find('?');
  if (qpos != std::string_view::npos) {
    endpoint = path.substr(0, qpos);
    query_string = path.substr(qpos + 1);
  }
  if (endpoint == "/obs/metrics") return PrometheusText(registry);
  if (endpoint == "/obs/timeseries") {
    return TimeSeriesJson(store, options.timeseries_tail);
  }
  if (endpoint == "/obs/decisions") return DecisionsJson(tracer);
  if (endpoint == "/obs/faults") {
    return FaultsJson(options.fault_log != nullptr
                          ? *options.fault_log
                          : fault::FaultLog::Default());
  }
  if (endpoint == "/obs/health") return HealthJson(now_us, health);
  if (endpoint == "/obs/profile") {
    const ProfilePlane& plane = options.profiles != nullptr
                                    ? *options.profiles
                                    : ProfilePlane::Default();
    if (query_string == "fmt=collapsed") return ProfilesCollapsed(plane);
    if (query_string == "fmt=prom") {
      // The Prometheus exposition narrowed to the profiling plane's own
      // metrics (profile.request.* histograms and record counters).
      std::vector<MetricSnapshot> metrics;
      for (MetricSnapshot& m : registry.Snapshot()) {
        if (m.name.rfind("profile.", 0) == 0) metrics.push_back(std::move(m));
      }
      return RenderPromLines(metrics);
    }
    if (!query_string.empty() && query_string != "fmt=json") {
      return Status::InvalidArgument(
          "/obs/profile supports ?fmt=json|prom|collapsed");
    }
    return ProfilesJson(plane);
  }
  if (endpoint == "/obs/history") {
    std::map<std::string, std::string> params = ParseParams(query_string);
    const std::string fmt =
        params.count("fmt") ? params.at("fmt") : std::string("json");
    if (fmt != "json" && fmt != "prom" && fmt != "collapsed") {
      return Status::InvalidArgument(
          "/obs/history supports ?fmt=json|prom|collapsed");
    }
    const blackbox::TelemetryReader* history = options.history;
    std::optional<blackbox::TelemetryReader> owned;
    if (history == nullptr) {
      DBM_ASSIGN_OR_RETURN(blackbox::TelemetryReader opened,
                           OpenInstalledHistory());
      owned = std::move(opened);
      history = &*owned;
    }
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
    return ObservatoryQuery(query_string.substr(2), options);
  }
  return Status::NotFound("no observatory endpoint '" +
                          std::string(endpoint) + "'");
}

}  // namespace dbm::obs
