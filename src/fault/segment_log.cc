#include "fault/segment_log.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/crc32.h"
#include "common/payload_reader.h"
#include "fault/durable_file.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/tracectx.h"

namespace dbm::fault {

namespace {

struct SegmentFile {
  uint64_t seq = 0;
  std::string name;
};

/// The directories whose entries opening a log in `dir` changes, in
/// fsync order: `dir` itself, for the segment Open creates, then the
/// parent of each directory that creating `dir` makes, deepest first —
/// each new directory is an entry in its parent, which only an fsync of
/// that parent makes durable.
std::vector<std::string> UnsyncedDirs(const std::string& dir) {
  std::vector<std::string> dirs{dir};
  std::filesystem::path p = std::filesystem::path(dir).lexically_normal();
  if (!p.has_filename()) p = p.parent_path();  // "a/b/" names "a/b"
  std::error_code ec;
  while (!p.empty() && !std::filesystem::exists(p, ec)) {
    std::filesystem::path parent = p.parent_path();
    dirs.push_back(parent.empty() ? "." : parent.string());
    p = std::move(parent);
  }
  return dirs;
}

/// The sequence number of "<prefix><digits>.seg"; nullopt for any other
/// file name.
std::optional<uint64_t> SegmentSeq(const SegmentFormat& format,
                                   std::string_view name) {
  constexpr std::string_view kSuffix = ".seg";
  if (name.size() <= format.prefix.size() + kSuffix.size() ||
      !name.starts_with(format.prefix) || !name.ends_with(kSuffix)) {
    return std::nullopt;
  }
  name.remove_prefix(format.prefix.size());
  name.remove_suffix(kSuffix.size());
  if (name.size() > 19) return std::nullopt;  // would overflow u64
  uint64_t seq = 0;
  for (char c : name) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

/// The segment files under `dir`, in sequence order.
std::vector<SegmentFile> ListSegments(const SegmentFormat& format,
                                      const std::string& dir) {
  std::vector<SegmentFile> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (std::optional<uint64_t> seq = SegmentSeq(format, name)) {
      files.push_back({*seq, std::move(name)});
    }
  }
  // Numeric order, not lexicographic: past 999999 the names grow a digit
  // and "wal-1000000.seg" must follow "wal-999999.seg".
  std::sort(files.begin(), files.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq != b.seq ? a.seq < b.seq : a.name < b.name;
            });
  return files;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open '" + path + "'");
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool CheckSegmentHeader(const SegmentFormat& format, std::string_view bytes) {
  PayloadReader header(bytes);
  std::string_view magic;
  uint32_t version = 0;
  return header.Bytes(format.magic.size(), &magic) && magic == format.magic &&
         header.Le(&version) && version == format.version;
}

}  // namespace

std::string SegmentFileName(const SegmentFormat& format, uint64_t seq) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(seq));
  return std::string(format.prefix) + digits + ".seg";
}

void EncodeSegmentHeader(const SegmentFormat& format, std::string* out) {
  out->append(format.magic);
  PutLe(out, format.version);
}

size_t BeginFrame(std::string* out) {
  const size_t at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return at;
}

void EndFrame(std::string* out, size_t at) {
  const size_t len = out->size() - at - kFrameHeaderBytes;
  const uint32_t crc = Crc32(
      reinterpret_cast<const uint8_t*>(out->data()) + at + kFrameHeaderBytes,
      len);
  PutLeAt(out, at, static_cast<uint32_t>(len));
  PutLeAt(out, at + 4, crc);
}

size_t ParseFrame(const SegmentFormat& format, const uint8_t* data, size_t n,
                  std::string_view* payload) {
  PayloadReader header({reinterpret_cast<const char*>(data), n});
  uint32_t len = 0, crc = 0;
  if (!header.Le(&len) || !header.Le(&crc)) return 0;
  if (len == 0 || len > format.max_payload || len > n - kFrameHeaderBytes) {
    return 0;
  }
  const uint8_t* body = data + kFrameHeaderBytes;
  if (Crc32(body, len) != crc) return 0;
  *payload = {reinterpret_cast<const char*>(body), len};
  return kFrameHeaderBytes + len;
}

Status ScanSegments(const SegmentFormat& format, const std::string& dir,
                    const FrameFn& fn, SegmentScanReport* report) {
  *report = SegmentScanReport{};
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return Status::OK();
  const std::vector<SegmentFile> files = ListSegments(format, dir);
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string path = dir + "/" + files[i].name;
    DBM_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
    ++report->segments_scanned;
    report->bytes_scanned += bytes.size();
    Segment& seg = report->segments.emplace_back();
    seg.path = path;
    seg.seq = files[i].seq;
    const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
    bool torn = !CheckSegmentHeader(format, bytes);
    size_t pos = torn ? 0 : kSegmentHeaderBytes;
    while (!torn && pos < bytes.size()) {
      std::string_view payload;
      const size_t frame_bytes =
          ParseFrame(format, data + pos, bytes.size() - pos, &payload);
      // Zeros from here to the end are the fill of a segment that was
      // fsynced: its written end, like the end of the file.
      if (frame_bytes == 0 &&
          std::all_of(data + pos, data + bytes.size(),
                      [](uint8_t b) { return b == 0; })) {
        break;
      }
      uint64_t lsn = 0;
      const ScanStep step =
          frame_bytes == 0 ? ScanStep::kTorn : fn(payload, path, &lsn);
      torn = step == ScanStep::kTorn;
      if (torn) break;
      ++report->frames;
      ++seg.frames;
      seg.bytes += frame_bytes;
      if (lsn != 0) {
        if (seg.first_lsn == 0) seg.first_lsn = lsn;
        seg.last_lsn = lsn;
        report->max_lsn = lsn;
      }
      pos += frame_bytes;
      if (step == ScanStep::kStop) return Status::OK();
    }
    if (torn) {
      // The first untrusted frame ends the history. Whole later segments
      // postdate the tear and cannot be trusted to follow a contiguous
      // prefix, so the scan stops entirely.
      report->truncated = true;
      report->truncated_segment = path;
      report->truncated_offset = pos;
      report->torn_tail_bytes = bytes.size() - pos;
      for (size_t j = i + 1; j < files.size(); ++j) {
        std::error_code size_ec;
        const uintmax_t size =
            std::filesystem::file_size(dir + "/" + files[j].name, size_ec);
        if (!size_ec) report->torn_tail_bytes += size;
      }
      break;
    }
  }
  return Status::OK();
}

SegmentLog::SegmentLog(const SegmentFormat& format, SegmentLogOptions options)
    : format_(format),
      options_(std::move(options)),
      point_(Injector::Default().GetPoint(options_.fault_point)) {}

SegmentLog::~SegmentLog() = default;

Result<std::unique_ptr<SegmentLog>> SegmentLog::Open(
    const SegmentFormat& format, SegmentLogOptions options, const FrameFn& fn,
    SegmentScanReport* report) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("a segment log needs a directory");
  }
  std::vector<std::string> unsynced_dirs = UnsyncedDirs(options.dir);
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create '" + options.dir +
                               "': " + ec.message());
  }
  DBM_RETURN_NOT_OK(ScanSegments(format, options.dir, fn, report));
  std::unique_ptr<SegmentLog> log(new SegmentLog(format, std::move(options)));
  log->unsynced_dirs_ = std::move(unsynced_dirs);

  size_t survivors = report->segments.size();
  if (report->truncated) {
    // Cut the torn tail, so new frames never land behind bytes no reader
    // would believe...
    const std::string& torn = report->truncated_segment;
    const uint64_t torn_seq = report->segments.back().seq;
    if (report->truncated_offset <= kSegmentHeaderBytes) {
      std::filesystem::remove(torn, ec);
      --survivors;
    } else {
      // A lost truncate brings the tear back, and the next scan would
      // stop there, before every segment written after this repair.
      DBM_RETURN_NOT_OK(
          DurableFile::Truncate(torn, report->truncated_offset));
      log->CountFsync();
    }
    // ...and unlink every segment past the tear, by sequence number: a
    // header tear has just unlinked the torn segment itself, and stale
    // later segments must not outlive it for the next scan to resurrect.
    for (const SegmentFile& file : ListSegments(format, log->dir())) {
      if (file.seq > torn_seq) {
        std::filesystem::remove(log->dir() + "/" + file.name, ec);
      }
    }
  }
  for (size_t i = 0; i < survivors; ++i) {
    const Segment& seg = report->segments[i];
    log->next_seq_ = seg.seq + 1;
    // A header-only last segment (an earlier Open that appended nothing)
    // is reused, so reopening never piles up empty files.
    if (seg.frames == 0 && i + 1 == survivors) {
      log->next_seq_ = seg.seq;
    } else {
      log->segments_.push_back(seg);
    }
  }
  log->flushed_lsn_ = log->durable_lsn_ = report->max_lsn;
  DBM_RETURN_NOT_OK(log->OpenSegment());
  return log;
}

Status SegmentLog::OpenSegment() {
  const uint64_t seq = next_seq_++;
  std::string path = options_.dir + "/" + SegmentFileName(format_, seq);
  std::string header;
  EncodeSegmentHeader(format_, &header);
  DBM_ASSIGN_OR_RETURN(
      file_, DurableFile::Open(path, header, point_, /*truncate=*/true));
  segments_.push_back({.path = std::move(path), .seq = seq});
  ++segments_created_;
  NoteDirChange();
  open_zeroed_ = false;
  return Status::OK();
}

Status SegmentLog::Append(std::string_view frame, uint64_t lsn,
                          SimTime at_us) {
  if (dead_ || file_ == nullptr) {
    dead_ = true;
    return Status::Unavailable("segment log '" + dir() + "' is dead");
  }
  if (frame.size() <= kFrameHeaderBytes) {
    // No reader could tell an empty frame from the zero fill.
    return Status::InvalidArgument("a frame needs a payload");
  }
  if (segments_.back().frames > 0 &&
      kSegmentHeaderBytes + segments_.back().bytes + frame.size() >
          options_.segment_bytes) {
    DBM_RETURN_NOT_OK(Seal());
    if (Status opened = OpenSegment(); !opened.ok()) {
      dead_ = true;
      return opened;
    }
  }
  Segment& open = segments_.back();
  // A crash leaves half the frame, the torn tail recovery cuts; an error
  // leaves nothing and consumes no sequence number.
  if (Status written =
          file_->Write(kSegmentHeaderBytes + open.bytes, frame, at_us);
      !written.ok()) {
    dead_ = file_->dead();
    return written;
  }
  ++open.frames;
  open.bytes += frame.size();
  if (open.first_lsn == 0) open.first_lsn = lsn;
  open.last_lsn = lsn;
  flushed_lsn_ = lsn;
  bytes_ += frame.size();
  bytes_since_fsync_ += frame.size();
  if (options_.fsync_interval_bytes > 0 &&
      bytes_since_fsync_ >= options_.fsync_interval_bytes) {
    return Fsync();
  }
  return Status::OK();
}

Status SegmentLog::Fsync() {
  if (dead_) return Status::Unavailable("segment log '" + dir() + "' is dead");
  if (file_ == nullptr) return Status::OK();
  std::optional<obs::SpanScope> span;
  if (options_.fsync_span != nullptr) {
    span.emplace(options_.fsync_span, "storage");
  }
  Segment& open = segments_.back();
  if (!open_zeroed_ && open.frames > 0) {
    // Extend the segment to its full size now, so later appends
    // overwrite zeros in place and later fsyncs journal no new size or
    // block map — only data.
    if (Status filled = file_->Zero(kSegmentHeaderBytes + open.bytes,
                                    options_.segment_bytes);
        !filled.ok()) {
      dead_ = true;
      return filled;
    }
    open_zeroed_ = true;
  }
  // The segment, then each directory whose entries changed: a segment's
  // bytes are no use after a power loss if its name is not durable too,
  // nor is an unlink that has not reached the disk, nor a log directory
  // whose own entry is not. On a failure (fsyncgate) the log dies and
  // the barrier stays: callers would act on bytes never made durable.
  if (Status synced = file_->Fsync(unsynced_dirs_); !synced.ok()) {
    dead_ = true;
    return synced;
  }
  CountFsync();
  dir_fsyncs_ += unsynced_dirs_.size();
  unsynced_dirs_.clear();
  if (segments_.front().seq > unsynced_seal_seq_) durable_lsn_ = flushed_lsn_;
  bytes_since_fsync_ = 0;
  return Status::OK();
}

Status SegmentLog::Seal() {
  // Bytes since the last fsync mean the open segment holds frames it did
  // not cover: that fsync reached the segment open at the time, and any
  // later segment took a frame as it opened. Once closed, no later fsync
  // reaches them.
  if (bytes_since_fsync_ > 0) {
    if (options_.fsync_on_seal) {
      DBM_RETURN_NOT_OK(Fsync());
    } else {
      unsynced_seal_seq_ = segments_.back().seq;
    }
  }
  Close();
  return Status::OK();
}

size_t SegmentLog::UnlinkOldestWhile(
    const std::function<bool(const Segment&)>& drop) {
  size_t unlinked = 0;
  std::error_code ec;
  while (segments_.size() > 1 && drop(segments_.front())) {
    std::filesystem::remove(segments_.front().path, ec);
    segments_.pop_front();
    ++unlinked;
    NoteDirChange();
  }
  return unlinked;
}

void SegmentLog::CountFsync() {
  ++fsyncs_;
  if (options_.fsync_counter != nullptr) options_.fsync_counter->Add(1);
}

void SegmentLog::NoteDirChange() {
  // Only Open adds parents, and it adds the log directory first.
  if (unsynced_dirs_.empty()) unsynced_dirs_.push_back(dir());
}

void SegmentLog::Close() { file_.reset(); }

}  // namespace dbm::fault
