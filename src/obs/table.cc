#include "obs/table.h"

#include "common/json.h"
#include "common/strings.h"

namespace dbm::obs {

namespace {

constexpr ColumnType kInt = ColumnType::kInt;
constexpr ColumnType kDouble = ColumnType::kDouble;
constexpr ColumnType kString = ColumnType::kString;

template <typename T>
Cell Int(T v) {
  return static_cast<int64_t>(v);
}

std::string CellJson(const Cell& cell) {
  if (const int64_t* i = std::get_if<int64_t>(&cell)) {
    return std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&cell)) return JsonNumber(*d);
  return "\"" + JsonEscape(std::get<std::string>(cell)) + "\"";
}

}  // namespace

Table MetricsTable(const Registry& registry) {
  return {"metrics",
          {{"name", kString},
           {"kind", kString},
           {"value", kDouble},
           {"count", kInt},
           {"mean", kDouble},
           {"min", kInt},
           {"max", kInt},
           {"p50", kDouble},
           {"p99", kDouble}},
          [&registry](const RowSink& row) {
            for (const MetricSnapshot& m : registry.Snapshot()) {
              row({m.name, std::string(MetricKindName(m.kind)), m.value,
                   Int(m.count), m.mean, Int(m.min), Int(m.max), m.p50,
                   m.p99});
            }
          }};
}

Table SpansTable(const Tracer& tracer) {
  return {"spans",
          {{"trace_id", kString},
           {"span_id", kInt},
           {"parent_span_id", kInt},
           {"name", kString},
           {"category", kString},
           {"thread", kInt},
           {"start_host_ns", kInt},
           {"dur_host_ns", kInt},
           {"sim_begin", kInt},
           {"sim_dur", kInt}},
          [&tracer](const RowSink& row) {
            for (const SpanRecord& s : tracer.Spans()) {
              row({s.trace_id.ToHex(), Int(s.span_id), Int(s.parent_span_id),
                   std::string(s.name), std::string(s.category),
                   Int(s.thread), Int(s.start_host_ns), Int(s.dur_host_ns),
                   Int(s.sim_begin), Int(s.sim_dur)});
            }
          }};
}

Table DecisionsTable(const Tracer& tracer) {
  return {"decisions",
          {{"trace_id", kString},
           {"span_id", kInt},
           {"at_sim_us", kInt},
           {"constraint_id", kInt},
           {"subject", kString},
           {"rule", kString},
           {"action", kString},
           {"gauges", kString}},
          [&tracer](const RowSink& row) {
            for (const DecisionRecord& d : tracer.Decisions()) {
              std::string gauges;
              for (int32_t i = 0; i < d.gauge_count; ++i) {
                if (i > 0) gauges += ",";
                gauges += StrFormat("%s=%.6g", d.gauges[i].metric,
                                    d.gauges[i].value);
              }
              row({d.trace_id.ToHex(), Int(d.span_id), Int(d.at_sim_us),
                   Int(d.constraint_id), std::string(d.subject),
                   std::string(d.rule), std::string(d.action),
                   std::move(gauges)});
            }
          }};
}

Table ProfilesTable(const ProfilePlane& plane) {
  return {"profiles",
          {{"trace_id", kString},
           {"resource", kString},
           {"served", kInt},
           {"at_us", kInt},
           {"queue_us", kInt},
           {"dispatch_us", kInt},
           {"exec_us", kInt},
           {"total_us", kInt}},
          [&plane](const RowSink& row) {
            for (const RequestProfile& r : plane.Requests()) {
              row({r.trace_id.ToHex(), std::string(r.resource),
                   Int(r.served ? 1 : 0), Int(r.at_us), Int(r.queue_us),
                   Int(r.dispatch_us), Int(r.exec_us), Int(r.total_us)});
            }
          }};
}

Table LoopLatencyTable(const LoopHealth& health) {
  return {"loop_latency",
          {{"trace_id", kString},
           {"span_id", kInt},
           {"constraint_id", kInt},
           {"at_sim_us", kInt},
           {"latency_us", kInt}},
          [&health](const RowSink& row) {
            for (const LoopLatencyRecord& r : health.LoopLatencies()) {
              row({r.trace_id.ToHex(), Int(r.span_id), Int(r.constraint_id),
                   Int(r.at_sim_us), Int(r.latency_us)});
            }
          }};
}

std::string RowsJson(const Table& table, size_t tail) {
  std::vector<std::vector<Cell>> rows;
  table.scan([&rows](std::vector<Cell> cells) {
    rows.push_back(std::move(cells));
  });
  size_t start = rows.size() > tail ? rows.size() - tail : 0;
  std::string out = "[";
  for (size_t r = start; r < rows.size(); ++r) {
    if (r > start) out += ",";
    out += "{";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ",";
      out += "\"" + table.columns[c].name + "\":" + CellJson(rows[r][c]);
    }
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace dbm::obs
