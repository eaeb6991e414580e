// wal_dump: inspect a write-ahead-log directory.
//
//   wal_dump --dir=log.wal [--frames] [--limit=N] [--json]
//
// Scans the segments with the torn-tail rule (ScanWal — the same code
// Wal::Open and recovery run) and prints a recovery report: segments,
// trusted frames, the LSN watermarks, checkpoints, and where — if
// anywhere — the history tears. --frames additionally lists each
// trusted frame (segment, LSN, type, page, image CRC) up to --limit.
// --json emits one machine-readable document instead of tables.
//
// The dump never mutates the directory: a torn tail is reported, not
// truncated (only Wal::Open repairs).
//
// Exit status: 0 = scan rendered (a truncated tail is still a
// successful scan — reported, not fatal), 1 = the directory cannot be
// scanned at all, 2 = usage error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/json.h"
#include "common/strings.h"
#include "storage/wal.h"

namespace {

using dbm::storage::ScanWal;
using dbm::storage::WalRecord;
using dbm::storage::WalRecordType;
using dbm::storage::WalScanReport;

struct Args {
  std::string dir;
  bool frames = false;
  size_t limit = 64;
  bool json = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: wal_dump --dir=DIR.wal [--frames] [--limit=N] "
               "[--json]\n");
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
    } else if (const char* v = value("--limit")) {
      // Whole or nothing: "-1" must not wrap to SIZE_MAX.
      std::optional<size_t> limit = dbm::ParseNumber<size_t>(v);
      if (!limit.has_value()) {
        std::fprintf(stderr, "wal_dump: bad --limit='%s'\n", v);
        return false;
      }
      out->limit = *limit;
    } else if (arg == "--frames") {
      out->frames = true;
    } else if (arg == "--json") {
      out->json = true;
    } else {
      return false;
    }
  }
  return !out->dir.empty();
}

struct FrameRow {
  std::string segment;
  WalRecordType type;
  uint64_t lsn;
  uint32_t page;
  uint64_t redo_lsn;
  uint32_t image_crc;
};

const char* TypeName(WalRecordType t) {
  switch (t) {
    case WalRecordType::kPageImage: return "page-image";
    case WalRecordType::kCheckpoint: return "checkpoint";
  }
  return "?";
}

void PrintJson(const Args& args, const WalScanReport& report,
               const std::vector<FrameRow>& frames, uint64_t total_frames) {
  std::printf("{\"dir\":\"%s\"", dbm::JsonEscape(args.dir).c_str());
  std::printf(",\"segments_scanned\":%" PRIu64, report.segments_scanned);
  std::printf(",\"frames\":%" PRIu64, report.frames);
  std::printf(",\"bytes_scanned\":%" PRIu64, report.bytes_scanned);
  std::printf(",\"max_lsn\":%" PRIu64, report.max_lsn);
  std::printf(",\"redo_lsn\":%" PRIu64, report.redo_lsn);
  std::printf(",\"checkpoints\":%" PRIu64, report.checkpoints);
  std::printf(",\"truncated\":%s", report.truncated ? "true" : "false");
  if (report.truncated) {
    std::printf(",\"truncated_segment\":\"%s\"",
                dbm::JsonEscape(report.truncated_segment).c_str());
    std::printf(",\"truncated_offset\":%" PRIu64, report.truncated_offset);
  }
  std::printf(",\"torn_tail_bytes\":%" PRIu64, report.torn_tail_bytes);
  std::printf(",\"segments\":[");
  for (size_t i = 0; i < report.segments.size(); ++i) {
    const auto& seg = report.segments[i];
    std::printf("%s{\"path\":\"%s\",\"frames\":%" PRIu64
                ",\"first_lsn\":%" PRIu64 ",\"last_lsn\":%" PRIu64
                ",\"bytes\":%" PRIu64 "}",
                i == 0 ? "" : ",", dbm::JsonEscape(seg.path).c_str(),
                seg.frames, seg.first_lsn, seg.last_lsn, seg.bytes);
  }
  std::printf("]");
  if (args.frames) {
    std::printf(",\"frame_rows\":[");
    for (size_t i = 0; i < frames.size(); ++i) {
      const FrameRow& row = frames[i];
      std::printf("%s{\"segment\":\"%s\",\"lsn\":%" PRIu64
                  ",\"type\":\"%s\"",
                  i == 0 ? "" : ",", dbm::JsonEscape(row.segment).c_str(),
                  row.lsn, TypeName(row.type));
      if (row.type == WalRecordType::kPageImage) {
        std::printf(",\"page\":%u,\"image_crc\":%u", row.page,
                    row.image_crc);
      } else {
        std::printf(",\"redo_lsn\":%" PRIu64, row.redo_lsn);
      }
      std::printf("}");
    }
    std::printf("],\"frame_rows_truncated\":%s",
                total_frames > frames.size() ? "true" : "false");
  }
  std::printf("}\n");
}

void PrintText(const Args& args, const WalScanReport& report,
               const std::vector<FrameRow>& frames, uint64_t total_frames) {
  std::printf("wal: %s\n", args.dir.c_str());
  std::printf("  segments scanned   %" PRIu64 "\n", report.segments_scanned);
  std::printf("  trusted frames     %" PRIu64 "\n", report.frames);
  std::printf("  bytes scanned      %" PRIu64 "\n", report.bytes_scanned);
  std::printf("  max trusted lsn    %" PRIu64 "\n", report.max_lsn);
  std::printf("  redo lsn           %" PRIu64 "%s\n", report.redo_lsn,
              report.checkpoints == 0 ? " (no checkpoint)" : "");
  std::printf("  checkpoints        %" PRIu64 "\n", report.checkpoints);
  if (report.truncated) {
    std::printf("  TORN TAIL at %s +%" PRIu64 " (%" PRIu64
                " bytes untrusted)\n",
                report.truncated_segment.c_str(), report.truncated_offset,
                report.torn_tail_bytes);
  } else {
    std::printf("  tail               clean\n");
  }
  std::printf("\n  %-28s %8s %10s %10s %10s\n", "segment", "frames",
              "first_lsn", "last_lsn", "bytes");
  for (const auto& seg : report.segments) {
    // Basename keeps the table narrow.
    size_t slash = seg.path.find_last_of('/');
    std::printf("  %-28s %8" PRIu64 " %10" PRIu64 " %10" PRIu64
                " %10" PRIu64 "\n",
                seg.path.substr(slash + 1).c_str(), seg.frames,
                seg.first_lsn, seg.last_lsn, seg.bytes);
  }
  if (args.frames) {
    std::printf("\n  %10s %-12s %8s %12s\n", "lsn", "type", "page",
                "image_crc");
    for (const FrameRow& row : frames) {
      if (row.type == WalRecordType::kPageImage) {
        std::printf("  %10" PRIu64 " %-12s %8u %12u\n", row.lsn,
                    TypeName(row.type), row.page, row.image_crc);
      } else {
        std::printf("  %10" PRIu64 " %-12s redo=%" PRIu64 "\n", row.lsn,
                    TypeName(row.type), row.redo_lsn);
      }
    }
    if (total_frames > frames.size()) {
      std::printf("  ... %" PRIu64 " more (raise --limit)\n",
                  total_frames - frames.size());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  // ScanWal treats an absent directory as an empty log (the Wal::Open
  // "create if missing" semantic); for a read-only inspector that would
  // turn a typo into a falsely clean report, so require the path.
  std::error_code ec;
  if (!std::filesystem::is_directory(args.dir, ec)) {
    std::fprintf(stderr, "wal_dump: %s: not a directory\n",
                 args.dir.c_str());
    return 1;
  }

  std::vector<FrameRow> frames;
  uint64_t total_frames = 0;
  WalScanReport report;
  dbm::Status status = ScanWal(
      args.dir,
      [&](const WalRecord& rec, const std::string& segment) {
        ++total_frames;
        if (args.frames && frames.size() < args.limit) {
          FrameRow row;
          row.segment = segment;
          row.type = rec.type;
          row.lsn = rec.lsn;
          row.page = rec.page;
          row.redo_lsn = rec.redo_lsn;
          row.image_crc =
              rec.type == WalRecordType::kPageImage
                  ? dbm::Crc32(rec.image.data(), rec.image.size())
                  : 0;
          frames.push_back(std::move(row));
        }
        return true;
      },
      &report);
  if (!status.ok()) {
    std::fprintf(stderr, "wal_dump: %s\n", status.ToString().c_str());
    return 1;
  }
  if (args.json) {
    PrintJson(args, report, frames, total_frames);
  } else {
    PrintText(args, report, frames, total_frames);
  }
  return 0;
}
