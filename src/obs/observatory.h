// The Observatory: observability content served by the machine itself.
//
// The paper's exemplar is a webserver (Patia, Fig 7), and DBOS's slant is
// that system state should be data you can query — so the natural way to
// look at a *running* reproduction is to ask it over its own serving
// path. This module renders the observability state as endpoint bodies:
//
//   /obs/metrics      Prometheus-style text exposition of the registry
//   /obs/timeseries   retained sample windows, JSON
//   /obs/decisions    the decisions table, JSON
//   /obs/faults       the faults table (injections, breaker transitions,
//                     recoveries, load sheds) + the ring's drop count, JSON
//   /obs/health       staleness verdicts + loop-latency count, JSON
//   /obs/profile      the profiling plane: request latency attribution +
//                     EXPLAIN ANALYZE tails (JSON); ?fmt=prom narrows
//                     the Prometheus exposition to profile.* metrics,
//                     ?fmt=collapsed emits collapsed stacks for
//                     flamegraph.pl / speedscope
//   /obs/query?q=...  a mini query language routed through query::Execute
//                     over the live tables (obs/table.h) and the history.*
//                     tables recovered from the black box's segments
//   /obs/history      the durable telemetry log (crash-surviving
//                     history): recovery report + record tail, JSON;
//                     ?fmt=prom renders gauge state as of ?to=<us>
//                     ("time travel"), ?fmt=collapsed emits kind;name
//                     counts; ?from=/?to= bound the range
//   /obs/flight       triggers an on-demand flight-record dump to the
//                     installed sidecar path and reports where it went
//
// Content generation lives here (target dbm_observatory: obs + the black
// box + the query engine); registering the endpoints as Patia service
// agents lives in src/patia/observatory.h — obs cannot depend on patia.
// Every endpoint reads the process-wide instances (Registry::Default(),
// Tracer::Default(), ...); only the black-box history can be handed in.
//
// The /obs/query language is deliberately tiny:
//
//   <relation> [where <column> <op> <value>] [limit N]
//
// with <relation> one of metrics|spans|decisions|faults|profiles|
// loop_latency or history.{metrics|spans|decisions|faults|profiles}, and
// <op> one of = != < <= > >=. It compiles to MemSource → FilterOp →
// LimitOp over ToRelation(table) and runs through query::Execute — the
// reproduction dogfooding its own engine.

#ifndef DBM_OBS_OBSERVATORY_H_
#define DBM_OBS_OBSERVATORY_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "data/relation.h"
#include "obs/metrics.h"
#include "obs/table.h"

namespace dbm::obs {

namespace blackbox {
class TelemetryReader;
}  // namespace blackbox

/// Prometheus text exposition: one "# TYPE" line and one sample line per
/// counter/gauge; histograms expose _count, _sum and quantile-labelled
/// summary lines. Metric names are sanitised (dots and dashes → '_').
std::string PrometheusText(const Registry& registry = Registry::Default());

/// Freezes a scan of `table` into a relation of the same name and columns.
data::Relation ToRelation(const Table& table);

/// Runs one mini-language query and renders the result rows as
/// {"relation":...,"columns":[...],"rows":[[...],...]}. `history` is the
/// recovered black box the history.* tables read; null = flush and read
/// the installed TelemetryLog's directory per request (live time travel),
/// failing with NotFound when neither exists.
Result<std::string> ObservatoryQuery(
    std::string_view q, const blackbox::TelemetryReader* history = nullptr);

/// Dispatches an endpoint path ("/obs/metrics", "/obs/query?q=...") to
/// the matching renderer. `now_us` is the simulated time of the request
/// (health verdicts and windows are relative to it); `history` is as for
/// ObservatoryQuery and also backs /obs/history.
Result<std::string> ServeObservatory(
    std::string_view path, int64_t now_us,
    const blackbox::TelemetryReader* history = nullptr);

}  // namespace dbm::obs

#endif  // DBM_OBS_OBSERVATORY_H_
