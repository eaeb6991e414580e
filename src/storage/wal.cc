#include "storage/wal.h"

#include "common/json.h"
#include "common/payload_reader.h"
#include "obs/health.h"

namespace dbm::storage {

namespace {

std::atomic<Wal*> g_installed{nullptr};

/// One page-image frame. The writeback hot path encodes straight into
/// the log's scratch buffer with it: one image copy, no WalRecord detour.
void EncodePageImageFrame(Lsn lsn, PageId page, const uint8_t* image,
                          size_t image_bytes, std::string* out) {
  const size_t at = fault::BeginFrame(out);
  fault::PutLe(out, static_cast<uint8_t>(WalRecordType::kPageImage));
  fault::PutLe(out, lsn);
  fault::PutLe(out, page);
  fault::PutLe(out, static_cast<uint32_t>(image_bytes));
  out->append(reinterpret_cast<const char*>(image), image_bytes);
  fault::EndFrame(out, at);
}

bool DecodeWalPayload(std::string_view payload, WalRecord* rec) {
  PayloadReader in(payload);
  WalRecord out;
  uint8_t type = 0;
  if (!in.Le(&type) || !in.Le(&out.lsn)) return false;
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kPageImage): {
      out.type = WalRecordType::kPageImage;
      uint32_t image_len = 0;
      std::string_view image;
      if (!in.Le(&out.page) || !in.Le(&image_len) ||
          image_len != kPageSize || !in.Bytes(image_len, &image)) {
        return false;
      }
      out.image.assign(image.begin(), image.end());
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kCheckpoint):
      out.type = WalRecordType::kCheckpoint;
      if (!in.Le(&out.redo_lsn)) return false;
      break;
    default:
      return false;
  }
  if (!in.done()) return false;
  *rec = std::move(out);
  return true;
}

/// The WAL codec over the shared scanner: each payload must decode and
/// carry an LSN above its predecessor's — an LSN that runs backwards
/// only comes from a stale or spliced segment and ends the trusted
/// history like a bad checksum. `fn` (optional) sees each trusted record.
fault::FrameFn WalFrames(
    std::function<bool(const WalRecord&, const std::string&)> fn,
    WalScanReport* report) {
  return [fn = std::move(fn), report, prev = Lsn{0}](
             std::string_view payload, const std::string& segment,
             uint64_t* lsn) mutable {
    WalRecord rec;
    if (!DecodeWalPayload(payload, &rec) || rec.lsn <= prev) {
      return fault::ScanStep::kTorn;
    }
    prev = *lsn = rec.lsn;
    if (rec.type == WalRecordType::kCheckpoint) {
      ++report->checkpoints;
      report->redo_lsn = rec.redo_lsn;
    }
    return fn && !fn(rec, segment) ? fault::ScanStep::kStop
                                   : fault::ScanStep::kNext;
  };
}

}  // namespace

const char* WalFsyncPolicyName(WalFsyncPolicy policy) {
  switch (policy) {
    case WalFsyncPolicy::kNever: return "never";
    case WalFsyncPolicy::kInterval: return "interval";
    case WalFsyncPolicy::kCommit: return "commit";
  }
  return "?";
}

void EncodeWalFrame(const WalRecord& rec, std::string* out) {
  if (rec.type == WalRecordType::kPageImage) {
    EncodePageImageFrame(rec.lsn, rec.page, rec.image.data(),
                         rec.image.size(), out);
    return;
  }
  const size_t at = fault::BeginFrame(out);
  fault::PutLe(out, static_cast<uint8_t>(WalRecordType::kCheckpoint));
  fault::PutLe(out, rec.lsn);
  fault::PutLe(out, rec.redo_lsn);
  fault::EndFrame(out, at);
}

bool DecodeWalFrame(const uint8_t* data, size_t n, WalRecord* rec,
                    size_t* frame_bytes) {
  std::string_view payload;
  const size_t bytes = fault::ParseFrame(kWalFormat, data, n, &payload);
  if (bytes == 0 || !DecodeWalPayload(payload, rec)) return false;
  *frame_bytes = bytes;
  return true;
}

Status ScanWal(
    const std::string& dir,
    const std::function<bool(const WalRecord& rec,
                             const std::string& segment)>& fn,
    WalScanReport* report) {
  *report = WalScanReport{};
  return fault::ScanSegments(kWalFormat, dir, WalFrames(fn, report), report);
}

Wal::Wal(WalOptions options, std::unique_ptr<fault::SegmentLog> log)
    : options_(std::move(options)),
      log_(std::move(log)),
      m_appends_(&obs::Registry::Default().GetCounter("wal.appends")),
      m_bytes_(&obs::Registry::Default().GetCounter("wal.bytes")),
      m_checkpoints_(
          &obs::Registry::Default().GetCounter("wal.checkpoints")),
      m_truncated_(
          &obs::Registry::Default().GetCounter("wal.truncated_segments")),
      m_segments_(&obs::Registry::Default().GetGauge("wal.segments")),
      m_durable_lsn_(
          &obs::Registry::Default().GetGauge("wal.durable_lsn")),
      m_flush_lag_(&obs::Registry::Default().GetGauge("wal.flush_lag")) {
  scratch_.reserve(kWalFormat.max_payload + fault::kFrameHeaderBytes);
  m_segments_->Set(static_cast<double>(log_->segments().size()));
  PublishWatermarksLocked();
}

Result<std::unique_ptr<Wal>> Wal::Open(WalOptions options) {
  fault::SegmentLogOptions log_options;
  log_options.dir = options.dir;
  log_options.segment_bytes = options.segment_bytes;
  if (options.fsync == WalFsyncPolicy::kInterval) {
    log_options.fsync_interval_bytes = options.fsync_interval_bytes;
  }
  // A group-commit force covers every frame up to its LSN, across the
  // segments the group was appended into.
  log_options.fsync_on_seal = options.fsync != WalFsyncPolicy::kNever;
  log_options.fault_point = "storage.wal.append";
  log_options.fsync_span = "wal.fsync";
  log_options.fsync_counter =
      &obs::Registry::Default().GetCounter("wal.fsyncs");
  WalScanReport report;
  DBM_ASSIGN_OR_RETURN(
      std::unique_ptr<fault::SegmentLog> log,
      fault::SegmentLog::Open(kWalFormat, std::move(log_options),
                              WalFrames(nullptr, &report), &report));
  return std::unique_ptr<Wal>(new Wal(std::move(options), std::move(log)));
}

Wal::~Wal() {
  Uninstall();
  std::lock_guard<std::mutex> lock(mu_);
  (void)log_->Fsync();  // best-effort on shutdown; a dead log refuses
}

Result<Lsn> Wal::AppendScratchLocked(Lsn lsn) {
  DBM_RETURN_NOT_OK(log_->Append(scratch_, lsn));
  ++appends_;
  m_appends_->Add(1);
  m_bytes_->Add(scratch_.size());
  m_segments_->Set(static_cast<double>(log_->segments().size()));
  PublishWatermarksLocked();
  return lsn;
}

Status Wal::SyncLocked() {
  Status synced = log_->Fsync();
  PublishWatermarksLocked();
  return synced;
}

void Wal::PublishWatermarksLocked() {
  m_durable_lsn_->Set(static_cast<double>(log_->durable_lsn()));
  m_flush_lag_->Set(
      static_cast<double>(log_->flushed_lsn() - log_->durable_lsn()));
}

Result<Lsn> Wal::AppendPageImage(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  const Lsn lsn = log_->flushed_lsn() + 1;
  scratch_.clear();
  EncodePageImageFrame(lsn, id, page.bytes.data(), kPageSize, &scratch_);
  return AppendScratchLocked(lsn);
}

Result<Lsn> Wal::AppendCheckpoint(Lsn redo_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  WalRecord rec;
  rec.type = WalRecordType::kCheckpoint;
  rec.lsn = log_->flushed_lsn() + 1;
  rec.redo_lsn = redo_lsn;
  scratch_.clear();
  EncodeWalFrame(rec, &scratch_);
  DBM_ASSIGN_OR_RETURN(Lsn lsn, AppendScratchLocked(rec.lsn));
  ++checkpoints_;
  m_checkpoints_->Add(1);
  return lsn;
}

Status Wal::Durable(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_->dead()) return Status::Unavailable("wal is dead (crash fault)");
  if (lsn > log_->flushed_lsn()) {
    return Status::FailedPrecondition(
        "durability barrier requested past the flushed LSN");
  }
  if (lsn <= log_->durable_lsn() ||
      options_.fsync != WalFsyncPolicy::kCommit) {
    // kNever / kInterval: the barrier trails by design — the torn-tail
    // rule still bounds what a crash can cost to the un-fsynced tail.
    return Status::OK();
  }
  return SyncLocked();
}

Status Wal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::TruncateBelow(Lsn redo_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t unlinked = log_->UnlinkOldestWhile(
      [redo_lsn](const fault::Segment& seg) {
        return seg.last_lsn < redo_lsn;
      });
  truncated_segments_ += unlinked;
  m_truncated_->Add(unlinked);
  m_segments_->Set(static_cast<double>(log_->segments().size()));
  return Status::OK();
}

Lsn Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_->flushed_lsn() + 1;
}

Lsn Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_->durable_lsn();
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats out;
  out.next_lsn = log_->flushed_lsn() + 1;
  out.flushed_lsn = log_->flushed_lsn();
  out.durable_lsn = log_->durable_lsn();
  out.appends = appends_;
  out.bytes = log_->bytes();
  out.fsyncs = log_->fsyncs();
  out.checkpoints = checkpoints_;
  out.segments_created = log_->segments_created();
  out.segments_live = log_->segments().size();
  out.truncated_segments = truncated_segments_;
  out.dead = log_->dead();
  return out;
}

std::vector<std::string> Wal::SegmentPaths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(log_->segments().size());
  for (const fault::Segment& seg : log_->segments()) {
    out.push_back(seg.path);
  }
  return out;
}

void Wal::Install() {
  g_installed.store(this, std::memory_order_release);
  static bool section_registered = [] {
    obs::RegisterFlightSection("wal", [] {
      Wal* wal = Wal::Installed();
      return wal == nullptr ? std::string("null")
                            : wal->FlightSectionJson();
    });
    return true;
  }();
  (void)section_registered;
}

void Wal::Uninstall() {
  Wal* self = this;
  g_installed.compare_exchange_strong(self, nullptr);
}

Wal* Wal::Installed() {
  return g_installed.load(std::memory_order_acquire);
}

std::string Wal::FlightSectionJson() const {
  WalStats s = stats();
  std::string out = "{\"dir\":\"" + JsonEscape(options_.dir) + "\"";
  out += ",\"fsync\":\"" +
         std::string(WalFsyncPolicyName(options_.fsync)) + "\"";
  out += ",\"next_lsn\":" + std::to_string(s.next_lsn);
  out += ",\"flushed_lsn\":" + std::to_string(s.flushed_lsn);
  out += ",\"durable_lsn\":" + std::to_string(s.durable_lsn);
  out += ",\"appends\":" + std::to_string(s.appends);
  out += ",\"bytes\":" + std::to_string(s.bytes);
  out += ",\"fsyncs\":" + std::to_string(s.fsyncs);
  out += ",\"checkpoints\":" + std::to_string(s.checkpoints);
  out += ",\"truncated_segments\":" + std::to_string(s.truncated_segments);
  out += std::string(",\"dead\":") + (s.dead ? "true" : "false");
  out += ",\"segments\":[";
  bool first = true;
  for (const std::string& path : SegmentPaths()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(path) + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace dbm::storage
