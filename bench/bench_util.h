// Shared console-table helpers for the experiment harness. Every bench
// binary regenerates one paper artefact (table or figure) and prints it
// in a uniform layout: experiment header, paper-vs-measured rows, and a
// short interpretation line so EXPERIMENTS.md can quote outputs directly.

#ifndef DBM_BENCH_BENCH_UTIL_H_
#define DBM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_trajectory.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/trace_export.h"
#include "obs/tracectx.h"

namespace dbm::bench {

/// Harness state shared by Init and MetricsSidecar.
struct BenchContext {
  std::string out_dir;  // argv[0]'s directory ("" = working directory)
  bool trace = false;
  double trace_sample = 1.0;
};

inline BenchContext& Context() {
  static BenchContext ctx;
  return ctx;
}

/// Call first in every bench main. Derives the sidecar directory from
/// argv[0] — outputs land next to the binary, not in whatever directory
/// the bench happened to be launched from — and handles the tracing
/// flags:
///   --trace               sample every root span (rate 1.0)
///   --trace-sample=<rate> sample this fraction of root spans; a rate
///                         that is not a whole number in [0, 1] prints
///                         a usage line and exits 2
/// With tracing on, MetricsSidecar additionally writes
/// `<id>.trace.json` (Chrome/Perfetto trace_event format).
///
/// Consumed flags are removed from argv (argc passed by pointer), so a
/// bench can hand the remainder to another flag parser (google-benchmark
/// in bench_componentisation rejects flags it does not know).
inline void Init(int* argc, char** argv) {
  BenchContext& ctx = Context();
  if (*argc > 0 && argv[0] != nullptr) {
    std::string argv0 = argv[0];
    size_t slash = argv0.find_last_of('/');
    if (slash != std::string::npos) ctx.out_dir = argv0.substr(0, slash + 1);
  }
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace") {
      ctx.trace = true;
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      // Whole or nothing: "abc" is not rate 0, "1.5" is not rate 1.
      const std::string value = arg.substr(15);
      std::optional<double> rate = ParseNumber<double>(value);
      if (!rate.has_value() || !(*rate >= 0.0 && *rate <= 1.0)) {
        std::fprintf(stderr,
                     "bad --trace-sample='%s': want a rate in [0, 1]\n"
                     "usage: %s [--trace] [--trace-sample=<rate in [0, 1]>]\n",
                     value.c_str(), argv[0]);
        std::exit(2);
      }
      ctx.trace = true;
      ctx.trace_sample = *rate;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  if (ctx.trace) {
    obs::TracerOptions topt;
    topt.sample_rate = ctx.trace_sample;
    obs::Tracer::Default().Configure(topt);
  }
  // Crash forensics: a fatal signal or DBM_CHECK failure dumps spans,
  // decisions, health verdicts and time-series tails next to the binary
  // (same anchoring as the metrics sidecar) for CI to collect.
  if (*argc > 0 && argv[0] != nullptr) {
    std::string base = argv[0];
    size_t slash = base.find_last_of('/');
    if (slash != std::string::npos) base = base.substr(slash + 1);
    obs::FlightRecorderOptions fopt;
    fopt.path = ctx.out_dir + base + ".flight.json";
    obs::InstallFlightRecorder(fopt);
  }
}

inline void Header(const std::string& id, const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

/// Fixed-width row printer: pass pre-formatted cells.
class Table {
 public:
  explicit Table(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::printf("%-*s", widths_[i], cells[i].c_str());
    }
    std::printf("\n");
  }
  void Rule() {
    int total = 0;
    for (int w : widths_) total += w;
    for (int i = 0; i < total; ++i) std::printf("-");
    std::printf("\n");
  }

 private:
  std::vector<int> widths_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
inline std::string FmtU(uint64_t v) { return std::to_string(v); }

inline void Note(const std::string& text) {
  std::printf("  -> %s\n", text.c_str());
}

/// Writes the machine-readable metrics sidecar `<id>.metrics.json` next
/// to the bench binary (argv[0]'s directory, captured by Init — NOT the
/// launch directory): a JSON snapshot of every counter, gauge and
/// histogram the run touched (format: docs/OBSERVABILITY.md). Also
/// appends this run's record to BENCH_trajectory.json, and — when Init
/// saw --trace — dumps `<id>.trace.json`. Call it once, at the end of
/// main, after all work has completed.
inline void MetricsSidecar(const std::string& id) {
  const BenchContext& ctx = Context();
  const std::string path = ctx.out_dir + id + ".metrics.json";
  Status s = obs::WriteJsonFile(path);
  if (s.ok()) {
    std::printf("  [metrics sidecar: %s]\n", path.c_str());
  } else {
    std::printf("  [metrics sidecar failed: %s]\n", s.ToString().c_str());
  }
  AppendTrajectory(ctx.out_dir + "BENCH_trajectory.json", id);
  if (ctx.trace) {
    const std::string trace_path = ctx.out_dir + id + ".trace.json";
    Status t = obs::WriteChromeTraceFile(trace_path);
    if (t.ok()) {
      std::printf("  [trace sidecar: %s — open in ui.perfetto.dev]\n",
                  trace_path.c_str());
    } else {
      std::printf("  [trace sidecar failed: %s]\n", t.ToString().c_str());
    }
  }
}

}  // namespace dbm::bench

#endif  // DBM_BENCH_BENCH_UTIL_H_
