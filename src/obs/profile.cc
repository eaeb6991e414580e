#include "obs/profile.h"

#include "common/json.h"
#include "obs/blackbox/record.h"
#include "obs/health.h"
#include "obs/table.h"

namespace dbm::obs {

ProfilePlane::ProfilePlane(size_t request_capacity, size_t query_capacity)
    : requests_(request_capacity == 0 ? 1 : request_capacity),
      query_capacity_(query_capacity == 0 ? 1 : query_capacity),
      requests_total_(Registry::Default().GetCounter("profile.requests")),
      queries_total_(Registry::Default().GetCounter("profile.queries")),
      queue_us_(Registry::Default().GetHistogram("profile.request.queue_us")),
      dispatch_us_(
          Registry::Default().GetHistogram("profile.request.dispatch_us")),
      exec_us_(Registry::Default().GetHistogram("profile.request.exec_us")),
      total_us_(Registry::Default().GetHistogram("profile.request.total_us")) {}

ProfilePlane& ProfilePlane::Default() {
  static ProfilePlane* plane = [] {
    auto* p = new ProfilePlane();
    // Crash dumps should end with the profile tail: the last thing the
    // machine was spending time on is usually the first question asked.
    RegisterFlightSection("profiles", [p] {
      return ProfilesJson(*p, /*request_tail=*/32);
    });
    return p;
  }();
  return *plane;
}

void ProfilePlane::RecordRequest(const RequestProfile& rec) {
  requests_.Append(rec);
  requests_total_.Add(1);
  queue_us_.Record(rec.queue_us);
  dispatch_us_.Record(rec.dispatch_us);
  exec_us_.Record(rec.exec_us);
  total_us_.Record(rec.total_us);
  if (blackbox::TelemetrySinkInstalled()) {
    blackbox::TelemetryRecord t;
    t.kind = static_cast<uint8_t>(blackbox::RecordKind::kProfile);
    t.trace_id = rec.trace_id;
    t.at_us = rec.at_us;
    t.a = static_cast<double>(rec.queue_us);
    t.b = static_cast<double>(rec.dispatch_us);
    t.c = static_cast<double>(rec.exec_us);
    t.d = static_cast<double>(rec.total_us);
    t.SetName(rec.resource);
    t.SetText(rec.served ? "served" : "failed");
    blackbox::Tap(t);
  }
}

void ProfilePlane::RecordQuery(QueryProfileSummary summary) {
  queries_total_.Add(1);
  std::lock_guard<std::mutex> lock(queries_mu_);
  queries_.push_back(std::move(summary));
  while (queries_.size() > query_capacity_) queries_.pop_front();
}

std::vector<QueryProfileSummary> ProfilePlane::Queries() const {
  std::lock_guard<std::mutex> lock(queries_mu_);
  return {queries_.begin(), queries_.end()};
}

void ProfilePlane::Clear() {
  requests_.Clear();
  std::lock_guard<std::mutex> lock(queries_mu_);
  queries_.clear();
}

std::string ProfilesJson(const ProfilePlane& plane, size_t request_tail) {
  std::string out =
      "{\"requests\":" + RowsJson(ProfilesTable(plane), request_tail);
  out += ",\"requests_dropped\":" + std::to_string(plane.requests_dropped());
  out += ",\"queries\":[";
  bool first = true;
  for (const QueryProfileSummary& q : plane.Queries()) {
    if (!first) out += ",";
    first = false;
    out += "{\"query\":\"" + JsonEscape(q.query) + "\"";
    out += ",\"trace_id\":\"" + JsonEscape(q.trace_id) + "\"";
    out += ",\"dop\":" + std::to_string(q.dop);
    out += ",\"rows\":" + std::to_string(q.rows);
    out += ",\"cycles\":" + std::to_string(q.cycles);
    out += ",\"allocs\":" + std::to_string(q.allocs);
    out += ",\"host_ns\":" + std::to_string(q.host_ns);
    out += ",\"error\":\"" + JsonEscape(q.error) + "\"";
    // The tree is pre-rendered JSON — splice it in verbatim.
    out += ",\"profile\":" + (q.json.empty() ? std::string("null") : q.json);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string ProfilesCollapsed(const ProfilePlane& plane) {
  std::string out;
  for (const QueryProfileSummary& q : plane.Queries()) {
    out += q.collapsed;
  }
  uint64_t queue = 0, dispatch = 0, exec = 0;
  for (const RequestProfile& r : plane.Requests()) {
    queue += r.queue_us;
    dispatch += r.dispatch_us;
    exec += r.exec_us;
  }
  out += "request;queue " + std::to_string(queue) + "\n";
  out += "request;dispatch " + std::to_string(dispatch) + "\n";
  out += "request;exec " + std::to_string(exec) + "\n";
  return out;
}

}  // namespace dbm::obs
