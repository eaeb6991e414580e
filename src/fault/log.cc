#include "fault/log.h"

#include "obs/blackbox/record.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace dbm::fault {

const char* FaultEventKindName(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kInjected: return "injected";
    case FaultEventKind::kBreaker: return "breaker";
    case FaultEventKind::kRecovery: return "recovery";
    case FaultEventKind::kDegraded: return "degraded";
  }
  return "?";
}

FaultLog& FaultLog::Default() {
  static FaultLog* log = [] {
    auto* l = new FaultLog();
    // Failure history belongs in the post-mortem too: the flight record
    // gains a "faults" section the moment the fault plane is in use.
    obs::RegisterFlightSection("faults",
                               [l] { return obs::RowsJson(FaultsTable(*l)); });
    return l;
  }();
  return *log;
}

obs::Table FaultsTable(const FaultLog& log) {
  using obs::ColumnType;
  return {"faults",
          {{"trace_id", ColumnType::kString},
           {"span_id", ColumnType::kInt},
           {"at_sim_us", ColumnType::kInt},
           {"kind", ColumnType::kString},
           {"point", ColumnType::kString},
           {"detail", ColumnType::kString}},
          [&log](const obs::RowSink& row) {
            for (const FaultEvent& e : log.Snapshot()) {
              row({e.trace_id.ToHex(), static_cast<int64_t>(e.span_id),
                   e.at_sim_us, std::string(FaultEventKindName(e.kind)),
                   std::string(e.point), std::string(e.detail)});
            }
          }};
}

void Record(FaultEventKind kind, std::string_view point,
            std::string_view detail, SimTime at_sim_us) {
  // Handles resolve once; Record is called from fault paths that are
  // already off the common case, so a static-local lookup is fine.
  static obs::Counter* counters[4] = {
      &obs::Registry::Default().GetCounter("fault.injected"),
      &obs::Registry::Default().GetCounter("fault.breaker_transitions"),
      &obs::Registry::Default().GetCounter("fault.recoveries"),
      &obs::Registry::Default().GetCounter("fault.degraded"),
  };
  counters[static_cast<uint8_t>(kind)]->Add(1);

  FaultEvent event;
  const obs::TraceContext& ctx = obs::CurrentContext();
  event.trace_id = ctx.trace_id;
  event.span_id = ctx.span_id;
  event.at_sim_us = at_sim_us;
  event.kind = kind;
  event.SetPoint(point);
  event.SetDetail(detail);
  FaultLog::Default().Append(event);

  if (obs::blackbox::TelemetrySinkInstalled()) {
    obs::blackbox::TelemetryRecord rec;
    rec.kind = static_cast<uint8_t>(obs::blackbox::RecordKind::kFault);
    rec.trace_id = ctx.trace_id;
    rec.at_us = at_sim_us;
    rec.a = static_cast<double>(static_cast<uint8_t>(kind));
    rec.SetName(point);
    rec.SetText(detail);
    rec.SetExtra(FaultEventKindName(kind));
    obs::blackbox::Tap(rec);
  }
}

}  // namespace dbm::fault
