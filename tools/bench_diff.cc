// bench_diff: compares two bench metrics sidecars and flags regressions.
//
//   bench_diff BASELINE.metrics.json CURRENT.metrics.json \
//       [--threshold=0.10] [--filter=cycles] [--all]
//
// By default only metrics whose name contains "cycles" are compared:
// simulated-cycle counts are deterministic functions of the workload, so
// a >threshold increase is a real cost regression, not machine noise
// (host-time metrics vary run to run and machine to machine; compare
// them with --all when that is understood). Counters and gauges compare
// their value; histograms compare count and mean.
//
// A baseline sidecar may carry a top-level "nogate" array of name
// substrings: metrics matching any entry are reported (NOGATE lines)
// but never fail the run. This is for fault-schedule-dependent costs —
// deterministic for a fixed seed, but expected to shift whenever the
// injector's draw stream changes, which is not a product regression.
//
// Exit status: 0 = no regression, 1 = at least one metric regressed past
// the threshold, 2 = usage / parse error, 3 = a sidecar file is missing
// (distinct so CI can treat "no baseline yet" as skip rather than
// failure). Improvements are reported but never fail the run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/strings.h"

namespace {

using dbm::JsonValue;
using dbm::ParseNumber;
using dbm::Result;
using dbm::Status;

void Usage() {
  std::fprintf(stderr,
               "usage: bench_diff BASELINE.metrics.json "
               "CURRENT.metrics.json [--threshold=0.10] "
               "[--filter=SUBSTRING] [--all]\n");
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string out;
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Sidecar flattened to comparable scalars (histograms fan out into
/// .count / .mean entries), plus the baseline's optional nogate list.
struct Sidecar {
  std::map<std::string, double> metrics;
  std::vector<std::string> nogate;
};

Result<Sidecar> LoadSidecar(const std::string& path) {
  DBM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  DBM_ASSIGN_OR_RETURN(JsonValue doc, dbm::ParseJson(text));
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->IsArray()) {
    return Status::ParseError("'" + path + "' has no metrics array");
  }
  Sidecar sidecar;
  std::map<std::string, double>& out = sidecar.metrics;
  for (const JsonValue& m : metrics->array) {
    const JsonValue* name = m.Find("name");
    const JsonValue* kind = m.Find("kind");
    if (name == nullptr || !name->IsString() || kind == nullptr) continue;
    if (kind->StringOr("") == "histogram") {
      const JsonValue* count = m.Find("count");
      const JsonValue* mean = m.Find("mean");
      if (count != nullptr) out[name->str + ".count"] = count->NumberOr(0);
      if (mean != nullptr) out[name->str + ".mean"] = mean->NumberOr(0);
    } else {
      const JsonValue* value = m.Find("value");
      if (value != nullptr) out[name->str] = value->NumberOr(0);
    }
  }
  const JsonValue* nogate = doc.Find("nogate");
  if (nogate != nullptr && nogate->IsArray()) {
    for (const JsonValue& n : nogate->array) {
      if (n.IsString() && !n.str.empty()) sidecar.nogate.push_back(n.str);
    }
  }
  return sidecar;
}

bool Nogated(const std::vector<std::string>& nogate,
             const std::string& name) {
  for (const std::string& pattern : nogate) {
    if (name.find(pattern) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold = 0.10;
  std::string filter = "cycles";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      std::optional<double> t = ParseNumber<double>(arg.substr(12));
      if (!t.has_value()) {
        std::fprintf(stderr, "bench_diff: bad --threshold='%s'\n",
                     arg.c_str() + 12);
        Usage();
        return 2;
      }
      threshold = *t;
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(9);
    } else if (arg == "--all") {
      filter.clear();
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    Usage();
    return 2;
  }

  auto baseline = LoadSidecar(paths[0]);
  auto current = LoadSidecar(paths[1]);
  if (!baseline.ok() || !current.ok()) {
    const Status& bad =
        !baseline.ok() ? baseline.status() : current.status();
    if (bad.IsNotFound()) {
      std::fprintf(stderr,
                   "bench_diff: sidecar not found: %s\n"
                   "bench_diff: no baseline to compare against — run the "
                   "bench once to produce it (exit 3, not a regression)\n",
                   bad.ToString().c_str());
      return 3;
    }
    std::fprintf(stderr, "bench_diff: %s\n", bad.ToString().c_str());
    return 2;
  }

  int regressions = 0, improvements = 0, compared = 0, nogated = 0;
  for (const auto& [name, base] : baseline->metrics) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    auto it = current->metrics.find(name);
    if (it == current->metrics.end()) {
      std::printf("MISSING  %-52s (in baseline only)\n", name.c_str());
      continue;
    }
    ++compared;
    double cur = it->second;
    double denom = base != 0 ? base : 1;
    double delta = (cur - base) / denom;
    if (delta > threshold) {
      if (Nogated(baseline->nogate, name)) {
        ++nogated;
        std::printf("NOGATE   %-52s %.6g -> %.6g  (+%.1f%%, informational)\n",
                    name.c_str(), base, cur, delta * 100);
      } else {
        ++regressions;
        std::printf("REGRESS  %-52s %.6g -> %.6g  (+%.1f%%)\n", name.c_str(),
                    base, cur, delta * 100);
      }
    } else if (delta < -threshold) {
      ++improvements;
      std::printf("IMPROVE  %-52s %.6g -> %.6g  (%.1f%%)\n", name.c_str(),
                  base, cur, delta * 100);
    }
  }
  std::printf(
      "bench_diff: %d compared (filter '%s'), %d regressed, %d improved, "
      "%d nogated, threshold %.0f%%\n",
      compared, filter.c_str(), regressions, improvements, nogated,
      threshold * 100);
  return regressions > 0 ? 1 : 0;
}
