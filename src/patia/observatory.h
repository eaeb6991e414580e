// Registers the Observatory endpoints as Patia service agents, so the
// machine's observability state is served over the same adaptive path as
// any other atom: /obs/metrics, /obs/timeseries, /obs/decisions,
// /obs/health and /obs/query?q=... become dynamic atoms whose bodies are
// rendered by obs::ServeObservatory at request time. Content generation
// lives in src/obs/observatory.h; this file is only the Fig-7 wiring.

#ifndef DBM_PATIA_OBSERVATORY_H_
#define DBM_PATIA_OBSERVATORY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "patia/patia.h"

namespace dbm::patia {

/// Registers the /obs/* endpoints on `nodes` (all must be AddNode'd) as
/// atoms 9000 upward. Returns the names of the registered atoms.
Result<std::vector<std::string>> RegisterObservatory(
    PatiaServer* server, const std::vector<std::string>& nodes);

}  // namespace dbm::patia

#endif  // DBM_PATIA_OBSERVATORY_H_
