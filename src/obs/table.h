// Observability state as tables: one definition per record ring.
//
// DBOS and TabulaROSA (PAPERS.md) argue that a machine's own state should
// be one set of tables. Each record ring has exactly one Table here: a
// column list plus a scan that snapshots the ring and writes it, row by
// row, into a RowSink. Everything that shows a ring renders from that one
// definition:
//
//   /obs/query          ToRelation (obs/observatory.h) → query::Execute
//   /obs/* JSON bodies  RowsJson
//   the flight record   RowsJson
//
// so a column added to a table shows up in all three and they cannot
// drift apart. The live tables:
//
//   metrics(name:string, kind:string, value:double, count:int,
//           mean:double, min:int, max:int, p50:double, p99:double)
//   spans(trace_id:string, span_id:int, parent_span_id:int, name:string,
//         category:string, thread:int, start_host_ns:int, dur_host_ns:int,
//         sim_begin:int, sim_dur:int)
//   decisions(trace_id:string, span_id:int, at_sim_us:int,
//             constraint_id:int, subject:string, rule:string,
//             action:string, gauges:string)
//   profiles(trace_id:string, resource:string, served:int, at_us:int,
//            queue_us:int, dispatch_us:int, exec_us:int, total_us:int)
//   loop_latency(trace_id:string, span_id:int, constraint_id:int,
//                at_sim_us:int, latency_us:int)
//
// `gauges` renders the rule inputs as "metric=value" pairs, comma
// separated, since a relation has no nested type. Trace ids stay strings
// (128 bits do not fit an int64); span ids are int64 bit patterns, so
// spans, decisions, faults and loop_latency join on them. The fault log's
// table sits beside its ring (fault::FaultsTable, fault/log.h) and the
// black box's history.* tables beside its reader
// (blackbox::HistoryTables, obs/blackbox/reader.h): both layers are above
// dbm_obs.

#ifndef DBM_OBS_TABLE_H_
#define DBM_OBS_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/tracectx.h"

namespace dbm::obs {

/// A column's type; the order matches Cell's alternatives.
enum class ColumnType : uint8_t { kInt, kDouble, kString };

struct Column {
  std::string name;
  ColumnType type;
};

/// One cell. Its alternative index is its column's ColumnType.
using Cell = std::variant<int64_t, double, std::string>;

/// Receives one row: a cell per column, in column order.
using RowSink = std::function<void(std::vector<Cell>)>;

struct Table {
  std::string name;  // the /obs/query relation name
  std::vector<Column> columns;
  /// Snapshots the ring and writes it into the sink, oldest row first.
  /// The table refers to its source, which must outlive every scan.
  std::function<void(const RowSink&)> scan;
};

Table MetricsTable(const Registry& registry = Registry::Default());
Table SpansTable(const Tracer& tracer = Tracer::Default());
Table DecisionsTable(const Tracer& tracer = Tracer::Default());
Table ProfilesTable(const ProfilePlane& plane = ProfilePlane::Default());
Table LoopLatencyTable(const LoopHealth& health = LoopHealth::Default());

/// The newest `tail` rows (all by default) as a JSON array of objects
/// keyed by column name: [{"trace_id":"…","span_id":3,…},…].
std::string RowsJson(const Table& table, size_t tail = SIZE_MAX);

}  // namespace dbm::obs

#endif  // DBM_OBS_TABLE_H_
