// obs_replay: time-travel over a black-box telemetry directory.
//
//   obs_replay --dir=crash.telem [--at=<sim_us>] [--window=<us>]
//              [--limit=N] [--json]
//
// Opens the segment directory with TelemetryReader (torn-tail recovery:
// everything before the first bad frame survives, nothing after) and
// reconstructs the Observatory's state *as of* --at: the last published
// value of every bus gauge at that instant, plus the Fig-1 decision
// timeline (monitor -> constraint -> action) within --window microseconds
// around it, plus every fault event in range. With no --at it replays to
// the newest recovered record — "what did the machine know when it
// died". --json emits one machine-readable document instead of tables.
//
// Exit status: 0 = replay rendered (a truncated tail is still a
// successful recovery — it is reported, not fatal), 1 = the directory
// cannot be recovered at all (missing / no segments), 2 = usage error.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "obs/blackbox/reader.h"
#include "obs/blackbox/record.h"

namespace {

using dbm::obs::blackbox::RecordKind;
using dbm::obs::blackbox::RecordKindName;
using dbm::obs::blackbox::RecoveryReport;
using dbm::obs::blackbox::TelemetryReader;
using dbm::obs::blackbox::TelemetryRecord;

struct Args {
  std::string dir;
  int64_t at_us = -1;      // -1 = newest recovered record
  int64_t window_us = 2'000'000;
  size_t limit = 40;
  bool json = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: obs_replay --dir=DIR.telem [--at=SIM_US] "
               "[--window=US] [--limit=N] [--json]\n");
}

/// Parses the whole of a flag's value as a T; a malformed number is a
/// usage error, never a silent 0 or a wrapped negative.
template <typename T>
bool NumberFlag(const char* flag, const char* text, T* out) {
  if (auto v = dbm::ParseNumber<T>(text)) {
    *out = *v;
    return true;
  }
  std::fprintf(stderr, "obs_replay: bad %s='%s'\n", flag, text);
  return false;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--dir")) {
      out->dir = v;
    } else if (const char* v = value("--at")) {
      if (!NumberFlag("--at", v, &out->at_us)) return false;
    } else if (const char* v = value("--window")) {
      if (!NumberFlag("--window", v, &out->window_us)) return false;
    } else if (const char* v = value("--limit")) {
      if (!NumberFlag("--limit", v, &out->limit)) return false;
    } else if (arg == "--json") {
      out->json = true;
    } else if (arg[0] != '-' && out->dir.empty()) {
      out->dir = arg;  // bare positional directory
    } else {
      std::fprintf(stderr, "obs_replay: unknown argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (out->dir.empty()) {
    std::fprintf(stderr, "obs_replay: --dir is required\n");
    return false;
  }
  return true;
}

std::string Esc(const char* s) { return dbm::JsonEscape(s); }

void RenderJson(const Args& args, const TelemetryReader& reader,
                int64_t at_us) {
  const RecoveryReport& rep = reader.report();
  std::string out = "{\"dir\":\"" + dbm::JsonEscape(args.dir) + "\"";
  out += ",\"at_us\":" + std::to_string(at_us);
  out += ",\"recovery\":{\"segments\":" + std::to_string(rep.segments_scanned);
  out += ",\"records\":" + std::to_string(rep.frames);
  out += ",\"bytes\":" + std::to_string(rep.bytes_scanned);
  out += std::string(",\"truncated\":") + (rep.truncated ? "true" : "false");
  if (rep.truncated) {
    out += ",\"truncated_segment\":\"" +
           dbm::JsonEscape(rep.truncated_segment) + "\"";
    out += ",\"truncated_offset\":" + std::to_string(rep.truncated_offset);
  }
  out += "},\"gauges\":{";
  bool first = true;
  for (const auto& [name, value] : reader.GaugesAsOf(at_us)) {
    if (!first) out += ",";
    first = false;
    out += "\"" + dbm::JsonEscape(name) + "\":" + dbm::JsonNumber(value);
  }
  out += "},\"timeline\":[";
  first = true;
  size_t emitted = 0;
  for (const TelemetryRecord& r :
       reader.Between(at_us - args.window_us, at_us + args.window_us)) {
    auto kind = static_cast<RecordKind>(r.kind);
    if (kind != RecordKind::kDecision && kind != RecordKind::kFault) continue;
    if (emitted++ >= args.limit) break;
    if (!first) out += ",";
    first = false;
    out += "{\"at_us\":" + std::to_string(r.at_us);
    out += std::string(",\"kind\":\"") + RecordKindName(kind) + "\"";
    out += ",\"name\":\"" + Esc(r.name) + "\"";
    out += ",\"text\":\"" + Esc(r.text) + "\"";
    out += ",\"extra\":\"" + Esc(r.extra) + "\"";
    out += ",\"a\":" + dbm::JsonNumber(r.a) + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

void RenderText(const Args& args, const TelemetryReader& reader,
                int64_t at_us) {
  const RecoveryReport& rep = reader.report();
  std::printf("black box: %s\n", args.dir.c_str());
  std::printf("  recovered %" PRIu64 " records from %" PRIu64
              " segment(s), %" PRIu64 " bytes scanned\n",
              rep.frames, rep.segments_scanned, rep.bytes_scanned);
  if (rep.truncated) {
    std::printf("  TORN TAIL: truncated at %s +%" PRIu64
                " (everything before it survives)\n",
                rep.truncated_segment.c_str(), rep.truncated_offset);
  } else {
    std::printf("  clean tail: every frame intact\n");
  }
  std::printf("\ngauges as of t=%lldus (last publish at or before):\n",
              static_cast<long long>(at_us));
  auto gauges = reader.GaugesAsOf(at_us);
  if (gauges.empty()) std::printf("  (no metric publishes recovered)\n");
  for (const auto& [name, value] : gauges) {
    std::printf("  %-40s %.6g\n", name.c_str(), value);
  }

  std::printf("\nFig-1 decision timeline (t=%lldus +/- %lldus):\n",
              static_cast<long long>(at_us),
              static_cast<long long>(args.window_us));
  size_t emitted = 0, suppressed = 0;
  for (const TelemetryRecord& r :
       reader.Between(at_us - args.window_us, at_us + args.window_us)) {
    auto kind = static_cast<RecordKind>(r.kind);
    if (kind == RecordKind::kDecision) {
      if (emitted++ >= args.limit) {
        ++suppressed;
        continue;
      }
      // monitor -> constraint -> action, the Fig-1 pipeline per row.
      std::printf("  %10lldus  C%-4.0f %-24s %-28s -> %s\n",
                  static_cast<long long>(r.at_us), r.a, r.name, r.text,
                  r.extra);
    } else if (kind == RecordKind::kFault) {
      if (emitted++ >= args.limit) {
        ++suppressed;
        continue;
      }
      std::printf("  %10lldus  FAULT %-10s %-24s %s\n",
                  static_cast<long long>(r.at_us), r.extra, r.name, r.text);
    }
  }
  if (emitted == 0) std::printf("  (no decisions or faults in window)\n");
  if (suppressed > 0) {
    std::printf("  ... %zu more suppressed (raise --limit)\n", suppressed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  auto reader = TelemetryReader::Open(args.dir);
  if (!reader.ok()) {
    std::fprintf(stderr, "obs_replay: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  int64_t at_us = args.at_us >= 0 ? args.at_us : reader->LastAtUs();
  if (args.json) {
    RenderJson(args, *reader, at_us);
  } else {
    RenderText(args, *reader, at_us);
  }
  return 0;
}
