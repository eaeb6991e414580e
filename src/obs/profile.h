// The profiling plane: where per-request and per-query cost attribution
// lands, queryable like everything else.
//
// DBOS's slant (PAPERS.md) is that performance state is data. This
// module keeps two bounded stores:
//
//   requests  a wait-free ring of RequestProfile records — one per
//             front-door request, breaking end-to-end latency into
//             queue (admission wait) / dispatch (amortised batch-ORB
//             cycles) / exec (Patia service time), joined to traces by
//             trace id. Mirrored into the
//             `profile.request.{queue,dispatch,exec,total}_us`
//             histograms at record time.
//   queries   a small deque of QueryProfileSummary records — the flat
//             tail of recent EXPLAIN ANALYZE runs (full trees live in
//             query::QueryProfile; this keeps their JSON + collapsed
//             stacks so /obs/profile and the flight recorder can serve
//             them after the query object is gone).
//
// Render targets: ProfilesJson (the /obs/profile body and the flight
// recorder's "profiles" section) and ProfilesCollapsed (collapsed-stack
// lines — `a;b;c weight` — for flamegraph.pl / speedscope). The request
// ring's one row definition is the `profiles` table (obs/table.h), which
// /obs/query serves and ProfilesJson renders; the Patia endpoint is
// registered in src/patia/observatory.cc.

#ifndef DBM_OBS_PROFILE_H_
#define DBM_OBS_PROFILE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracectx.h"

namespace dbm::obs {

/// One front-door request's latency breakdown. POD so the ring cannot
/// tear (see TraceRing).
struct RequestProfile {
  TraceId trace_id;            // invalid when the request was unsampled
  int64_t at_us = 0;           // simulated enqueue time
  uint64_t queue_us = 0;       // admission-queue wait
  uint64_t dispatch_us = 0;    // amortised batch ORB invocation share
  uint64_t exec_us = 0;        // dispatch → completion
  uint64_t total_us = 0;       // enqueue → completion
  bool served = false;
  char resource[kTraceNameMax] = {};

  void SetResource(std::string_view r) {
    internal::CopyTruncated(resource, sizeof(resource), r);
  }
};

/// Flat tail of one EXPLAIN ANALYZE run (see query/profile.h for the
/// tree itself).
struct QueryProfileSummary {
  std::string query;       // caller label ("parallel", "serial", ...)
  std::string trace_id;    // hex, empty when unsampled
  size_t dop = 1;
  uint64_t rows = 0;
  uint64_t cycles = 0;     // deterministic work cycles (Σ over the tree)
  uint64_t allocs = 0;
  uint64_t host_ns = 0;
  std::string error;       // failure attribution, empty on success
  std::string collapsed;   // collapsed-stack lines for the tree
  std::string json;        // the full tree as JSON
};

class ProfilePlane {
 public:
  explicit ProfilePlane(size_t request_capacity = 4096,
                        size_t query_capacity = 64);

  /// The process-wide plane: the front door and the profiled executors
  /// record here; registers the flight recorder's "profiles" section on
  /// first use.
  static ProfilePlane& Default();

  /// Wait-free on the ring; also feeds the profile.request.* histograms.
  void RecordRequest(const RequestProfile& rec);

  /// Keeps the newest `query_capacity` summaries (mutex-guarded; query
  /// completion is not a hot path).
  void RecordQuery(QueryProfileSummary summary);

  std::vector<RequestProfile> Requests() const { return requests_.Snapshot(); }
  std::vector<QueryProfileSummary> Queries() const;

  uint64_t requests_dropped() const { return requests_.dropped(); }

  /// New epoch (tests). Not safe concurrently with writers.
  void Clear();

 private:
  TraceRing<RequestProfile> requests_;
  size_t query_capacity_;
  mutable std::mutex queries_mu_;
  std::deque<QueryProfileSummary> queries_;

  Counter& requests_total_;
  Counter& queries_total_;
  Histogram& queue_us_;
  Histogram& dispatch_us_;
  Histogram& exec_us_;
  Histogram& total_us_;
};

/// {"requests":[...],"requests_dropped":N,"queries":[...]} — the newest
/// `request_tail` rows of the profiles table plus every retained query
/// summary. /obs/profile serves it under a "profiles" key; the flight
/// record's "profiles" section is this object itself.
std::string ProfilesJson(const ProfilePlane& plane = ProfilePlane::Default(),
                         size_t request_tail = 64);

/// Collapsed-stack export: each query tree's paths weighted by exclusive
/// work cycles, plus aggregate request;{queue,dispatch,exec} lines
/// weighted by µs. Feed to flamegraph.pl or speedscope as-is.
std::string ProfilesCollapsed(
    const ProfilePlane& plane = ProfilePlane::Default());

}  // namespace dbm::obs

#endif  // DBM_OBS_PROFILE_H_
