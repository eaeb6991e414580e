// The fault log: every injected fault, breaker transition, recovery and
// load-shed as a queryable record.
//
// DBOS's argument (PAPERS.md) is that failure history belongs in the
// data plane where the rules can see it. Records are POD and land in
// the same lock-free head-keeping TraceRing the tracer uses; each one
// captures the thread's current trace context, so a fault is joinable
// to the DecisionRecord of the adaptation it triggered by trace id.
// FaultsTable is the ring's one row definition,
//
//   faults(trace_id:string, span_id:int, at_sim_us:int, kind:string,
//          point:string, detail:string)
//
// with kind one of injected|breaker|recovery|degraded. The Observatory
// serves it at /obs/faults and as the `faults` relation, and the flight
// record carries it as its "faults" section. It sits here rather than in
// obs/table.h because dbm_fault is above dbm_obs.

#ifndef DBM_FAULT_LOG_H_
#define DBM_FAULT_LOG_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"
#include "obs/table.h"
#include "obs/tracectx.h"

namespace dbm::fault {

enum class FaultEventKind : uint8_t {
  kInjected = 0,  // the injector fired at a fault point
  kBreaker = 1,   // a circuit breaker changed state
  kRecovery = 2,  // a replay / rollback / resume healed the failure
  kDegraded = 3,  // load shed: a degraded variant served instead of 503
};
const char* FaultEventKindName(FaultEventKind kind);

/// One fault-plane event. POD (fixed-size text) for tear-free ring
/// publication, like SpanRecord/DecisionRecord.
struct FaultEvent {
  obs::TraceId trace_id;  // invalid when outside any sampled request
  uint64_t span_id = 0;
  int64_t at_sim_us = 0;
  FaultEventKind kind = FaultEventKind::kInjected;
  char point[obs::kTraceNameMax] = {};    // fault point / breaker name
  char detail[obs::kTraceTextMax] = {};   // human-readable what-happened

  void SetPoint(std::string_view p) {
    obs::internal::CopyTruncated(point, sizeof(point), p);
  }
  void SetDetail(std::string_view d) {
    obs::internal::CopyTruncated(detail, sizeof(detail), d);
  }
};

/// Process-wide bounded fault log. Same epoch discipline as the tracer:
/// Append is wait-free, Clear only at quiescent points.
class FaultLog {
 public:
  explicit FaultLog(size_t capacity = 1 << 12) : ring_(capacity) {}

  static FaultLog& Default();

  void Append(const FaultEvent& event) { ring_.Append(event); }
  std::vector<FaultEvent> Snapshot() const { return ring_.Snapshot(); }
  uint64_t dropped() const { return ring_.dropped(); }
  uint64_t size() const { return ring_.size(); }
  void Clear() { ring_.Clear(); }

 private:
  obs::TraceRing<FaultEvent> ring_;
};

/// The faults table over `log`'s ring (see the header comment).
obs::Table FaultsTable(const FaultLog& log = FaultLog::Default());

/// Builds and appends an event to the default log, stamping the calling
/// thread's trace context — the one-liner instrumented sites use. Also
/// bumps the matching "fault.<kind>" counter in the default registry.
void Record(FaultEventKind kind, std::string_view point,
            std::string_view detail, SimTime at_sim_us);

}  // namespace dbm::fault

#endif  // DBM_FAULT_LOG_H_
