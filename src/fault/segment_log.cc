#include "fault/segment_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/crc32.h"
#include "common/payload_reader.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "obs/metrics.h"
#include "obs/tracectx.h"

namespace dbm::fault {

namespace {

struct SegmentFile {
  uint64_t seq = 0;
  std::string name;
};

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
  for (size_t i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    (*out)[at + 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

size_t ParseFrame(const SegmentFormat& format, const uint8_t* data, size_t n,
                  std::string_view* payload) {
  PayloadReader header({reinterpret_cast<const char*>(data), n});
  uint32_t len = 0, crc = 0;
  if (!header.Le(&len) || !header.Le(&crc)) return 0;
  if (len > format.max_payload || len > n - kFrameHeaderBytes) return 0;
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

SegmentLog::~SegmentLog() { Close(); }

Result<std::unique_ptr<SegmentLog>> SegmentLog::Open(
    const SegmentFormat& format, SegmentLogOptions options, const FrameFn& fn,
    SegmentScanReport* report) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("a segment log needs a directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create '" + options.dir +
                               "': " + ec.message());
  }
  DBM_RETURN_NOT_OK(ScanSegments(format, options.dir, fn, report));
  std::unique_ptr<SegmentLog> log(new SegmentLog(format, std::move(options)));

  size_t survivors = report->segments.size();
  if (report->truncated) {
    // Cut the torn tail, so new frames never land behind bytes no reader
    // would believe...
    const std::string& torn = report->truncated_segment;
    const uint64_t torn_seq = report->segments.back().seq;
    if (report->truncated_offset <= kSegmentHeaderBytes) {
      ::unlink(torn.c_str());
      --survivors;
    } else if (::truncate(torn.c_str(),
                          static_cast<off_t>(report->truncated_offset)) != 0) {
      return Status::IoError("cannot truncate the torn tail of '" + torn +
                             "'");
    }
    // ...and unlink every segment past the tear, by sequence number: a
    // header tear has just unlinked the torn segment itself, and stale
    // later segments must not outlive it for the next scan to resurrect.
    for (const SegmentFile& file : ListSegments(format, log->dir())) {
      if (file.seq > torn_seq) {
        ::unlink((log->dir() + "/" + file.name).c_str());
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
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) {
    return Status::Unavailable("cannot open segment '" + path + "'");
  }
  std::string header;
  EncodeSegmentHeader(format_, &header);
  if (::write(fd_, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    ::close(fd_);
    fd_ = -1;
    return Status::Unavailable("cannot write the header of segment '" +
                               path + "'");
  }
  segments_.push_back({.path = std::move(path), .seq = seq});
  ++segments_created_;
  return Status::OK();
}

Status SegmentLog::Append(std::string_view frame, uint64_t lsn,
                          SimTime at_us) {
  if (dead_ || fd_ < 0) {
    dead_ = true;
    return Status::Unavailable("segment log '" + dir() + "' is dead");
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
  if (point_->armed()) {
    const Decision verdict = point_->Decide();
    if (verdict.crash) {
      // Act the crash out: half a frame on disk, then the log dies —
      // exactly the torn tail a kill -9 mid-append leaves behind.
      // Recovery must truncate here and keep every frame before it.
      (void)!::write(fd_, frame.data(), frame.size() / 2);
      dead_ = true;
      Record(FaultEventKind::kInjected, point_->name(),
             "crash mid-append: torn frame in " + segments_.back().path,
             at_us);
      return Status::Unavailable("segment log '" + dir() +
                                 "' is dead (injected crash mid-append)");
    }
    if (verdict.error) {
      // A failed append leaves no bytes and consumes no sequence number:
      // the caller may retry and the history stays contiguous.
      return Status::IoError("injected append error at " + point_->name());
    }
  }
  if (::write(fd_, frame.data(), frame.size()) !=
      static_cast<ssize_t>(frame.size())) {
    dead_ = true;
    return Status::Unavailable("short write to segment '" +
                               segments_.back().path + "'");
  }
  Segment& open = segments_.back();
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
  if (fd_ < 0) return Status::OK();
  std::optional<obs::SpanScope> span;
  if (options_.fsync_span != nullptr) {
    span.emplace(options_.fsync_span, "storage");
  }
  if (::fsync(fd_) != 0) {
    // fsyncgate: a failed fsync may have dropped the dirty pages, and
    // retrying cannot bring them back. The barrier must not advance —
    // callers would act on bytes the log never made durable — so the
    // log dies here.
    dead_ = true;
    return Status::IoError("fsync failed on segment '" +
                           segments_.back().path + "'");
  }
  ++fsyncs_;
  if (options_.fsync_counter != nullptr) options_.fsync_counter->Add(1);
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
  while (segments_.size() > 1 && drop(segments_.front())) {
    ::unlink(segments_.front().path.c_str());
    segments_.pop_front();
    ++unlinked;
  }
  return unlinked;
}

void SegmentLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace dbm::fault
