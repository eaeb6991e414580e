#include "patia/observatory.h"

#include "common/json.h"
#include "obs/observatory.h"

namespace dbm::patia {

namespace {

// The endpoints' atom ids run upward from here.
constexpr int kFirstAtomId = 9000;

const char* const kEndpoints[] = {
    "/obs/metrics", "/obs/timeseries", "/obs/decisions", "/obs/faults",
    "/obs/health",  "/obs/profile",    "/obs/query",     "/obs/history",
    "/obs/flight",
};

}  // namespace

Result<std::vector<std::string>> RegisterObservatory(
    PatiaServer* server, const std::vector<std::string>& nodes) {
  if (server == nullptr) {
    return Status::InvalidArgument("null server");
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("observatory needs at least one node");
  }
  std::vector<std::string> registered;
  int id = kFirstAtomId;
  for (const char* endpoint : kEndpoints) {
    Atom atom;
    atom.id = id++;
    atom.name = endpoint;
    atom.type = "text";
    // Nominal size only — the generated body prices the transfer.
    atom.variants = {{std::string(endpoint), 0}};
    DBM_RETURN_NOT_OK(server->RegisterDynamicAtom(
        std::move(atom), nodes,
        [](const std::string& resource, SimTime now) {
          auto body = obs::ServeObservatory(resource, now);
          if (body.ok()) return *std::move(body);
          // The message may echo the request, so it is escaped like any
          // other string in the body.
          return "{\"error\":\"" + JsonEscape(body.status().message()) +
                 "\"}";
        }));
    registered.push_back(endpoint);
  }
  return registered;
}

}  // namespace dbm::patia
