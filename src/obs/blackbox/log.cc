#include "obs/blackbox/log.h"

#include <chrono>

#include "common/json.h"
#include "fault/segment_log.h"
#include "obs/blackbox/format.h"
#include "obs/health.h"

namespace dbm::obs::blackbox {

namespace {

std::atomic<TelemetryLog*> g_installed{nullptr};

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kRotate: return "rotate";
  }
  return "?";
}

TelemetryLog::TelemetryLog(TelemetryLogOptions options,
                           std::unique_ptr<fault::SegmentLog> log)
    : options_(std::move(options)),
      log_(std::move(log)),
      m_appended_(&Registry::Default().GetCounter("blackbox.appended")),
      m_dropped_(&Registry::Default().GetCounter("blackbox.dropped")),
      m_bytes_(&Registry::Default().GetCounter("blackbox.bytes")),
      m_segments_(&Registry::Default().GetGauge("blackbox.segments")),
      m_flush_lag_(&Registry::Default().GetGauge("blackbox.flush_lag_us")),
      m_backlog_(&Registry::Default().GetGauge("blackbox.backlog")) {
  size_t cap = 1;
  while (cap < options_.ring_capacity) cap <<= 1;
  options_.ring_capacity = cap;
  ring_mask_ = cap - 1;
  cells_ = std::make_unique<Cell[]>(cap);
  for (size_t i = 0; i < cap; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  scratch_.reserve(kTelemetryFormat.max_payload + fault::kFrameHeaderBytes);
}

Result<std::unique_ptr<TelemetryLog>> TelemetryLog::Open(
    TelemetryLogOptions options) {
  if (options.metric_sample_every == 0) options.metric_sample_every = 1;
  fault::SegmentLogOptions log_options;
  log_options.dir = options.dir;
  log_options.segment_bytes = options.segment_bytes;
  if (options.fsync == FsyncPolicy::kInterval) {
    log_options.fsync_interval_bytes = options.fsync_interval_bytes;
  }
  log_options.fsync_on_seal = options.fsync != FsyncPolicy::kNever;
  log_options.fault_point = "obs.blackbox.write";
  log_options.fsync_counter =
      &Registry::Default().GetCounter("blackbox.fsyncs");
  fault::SegmentScanReport report;
  DBM_ASSIGN_OR_RETURN(
      std::unique_ptr<fault::SegmentLog> segments,
      fault::SegmentLog::Open(kTelemetryFormat, std::move(log_options),
                              TelemetryFrames(nullptr), &report));
  std::unique_ptr<TelemetryLog> log(
      new TelemetryLog(std::move(options), std::move(segments)));
  {
    std::lock_guard<std::mutex> lock(log->io_mu_);
    log->ApplyRetentionLocked();
  }
  if (log->options_.start_flusher) {
    log->flusher_running_ = true;
    log->flusher_ = std::thread([raw = log.get()] { raw->FlusherMain(); });
  }
  return log;
}

TelemetryLog::~TelemetryLog() {
  Uninstall();
  Stop();
}

bool TelemetryLog::Append(const TelemetryRecord& rec) {
  if (rec.kind == static_cast<uint8_t>(RecordKind::kMetric) &&
      options_.metric_sample_every > 1) {
    // Deterministic 1-in-N on arrival order (the bus's own publish
    // sequence would also do; arrival order keeps the sampler uniform
    // across channels).
    uint64_t seen = metric_seen_.fetch_add(1, std::memory_order_relaxed);
    if (seen % options_.metric_sample_every != 0) {
      sampled_out_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Vyukov bounded-queue enqueue: claim a cell whose sequence says
  // "free", publish by bumping it. Wait-free for producers — a full
  // ring refuses immediately instead of spinning on the consumer.
  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  Cell* cell;
  for (;;) {
    cell = &cells_[pos & ring_mask_];
    uint64_t seq = cell->seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        break;
      }
    } else if (dif < 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      m_dropped_->Add(1);
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
  cell->rec = rec;
  cell->enqueue_ns = NowHostNs();
  cell->seq.store(pos + 1, std::memory_order_release);
  appended_.fetch_add(1, std::memory_order_relaxed);
  m_appended_->Add(1);
  return true;
}

void TelemetryLog::Install() {
  SetTelemetrySink(this);
  g_installed.store(this, std::memory_order_release);
  installed_ = true;
  // The section reads through Installed() so a replaced or destroyed log
  // never leaves a dangling capture behind in the flight recorder.
  static bool section_registered = [] {
    RegisterFlightSection("blackbox", [] {
      TelemetryLog* log = TelemetryLog::Installed();
      return log == nullptr ? std::string("null") : log->FlightSectionJson();
    });
    return true;
  }();
  (void)section_registered;
}

void TelemetryLog::Uninstall() {
  if (!installed_) return;
  installed_ = false;
  TelemetryLog* self = this;
  if (g_installed.compare_exchange_strong(self, nullptr)) {
    SetTelemetrySink(nullptr);
  }
}

TelemetryLog* TelemetryLog::Installed() {
  return g_installed.load(std::memory_order_acquire);
}

void TelemetryLog::WriteFrameLocked(const TelemetryRecord& rec) {
  scratch_.clear();
  EncodeFrame(rec, &scratch_);
  // Frames number from 1 in each process, so the durable barrier reads
  // as a record count.
  if (!log_->Append(scratch_, log_->flushed_lsn() + 1, rec.at_us).ok()) {
    return;
  }
  m_bytes_->Add(scratch_.size());
  ApplyRetentionLocked();
}

void TelemetryLog::ApplyRetentionLocked() {
  log_->UnlinkOldestWhile([this](const fault::Segment&) {
    return log_->segments().size() > options_.max_segments;
  });
  m_segments_->Set(static_cast<double>(log_->segments().size()));
}

size_t TelemetryLog::DrainLocked() {
  size_t drained = 0;
  uint64_t oldest_enqueue_ns = 0;
  for (;;) {
    uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell* cell = &cells_[pos & ring_mask_];
    uint64_t seq = cell->seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1) < 0) {
      break;  // ring empty
    }
    TelemetryRecord rec = cell->rec;
    if (oldest_enqueue_ns == 0) oldest_enqueue_ns = cell->enqueue_ns;
    cell->seq.store(pos + options_.ring_capacity,
                    std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    WriteFrameLocked(rec);
    ++drained;
  }
  if (drained > 0 && oldest_enqueue_ns > 0) {
    flush_lag_us_ = static_cast<int64_t>(
        (NowHostNs() - oldest_enqueue_ns) / 1000);
    m_flush_lag_->Set(static_cast<double>(flush_lag_us_));
  }
  m_backlog_->Set(static_cast<double>(
      enqueue_pos_.load(std::memory_order_relaxed) -
      dequeue_pos_.load(std::memory_order_relaxed)));
  return drained;
}

void TelemetryLog::FlusherMain() {
  std::unique_lock<std::mutex> wake(wake_mu_);
  while (!stop_requested_) {
    wake_cv_.wait_for(wake,
                      std::chrono::milliseconds(options_.flush_period_ms));
    if (stop_requested_) break;
    wake.unlock();
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      DrainLocked();
    }
    wake.lock();
  }
}

size_t TelemetryLog::Poll() {
  std::lock_guard<std::mutex> lock(io_mu_);
  return DrainLocked();
}

Status TelemetryLog::Flush() {
  std::lock_guard<std::mutex> lock(io_mu_);
  DrainLocked();
  return log_->Fsync();
}

void TelemetryLog::Stop() {
  if (flusher_running_) {
    {
      std::lock_guard<std::mutex> wake(wake_mu_);
      stop_requested_ = true;
    }
    wake_cv_.notify_all();
    flusher_.join();
    flusher_running_ = false;
  }
  (void)Flush();
  std::lock_guard<std::mutex> lock(io_mu_);
  log_->Close();
}

TelemetryLogStats TelemetryLog::stats() const {
  TelemetryLogStats out;
  out.appended = appended_.load(std::memory_order_relaxed);
  out.dropped = dropped_.load(std::memory_order_relaxed);
  out.sampled_out = sampled_out_.load(std::memory_order_relaxed);
  out.backlog = enqueue_pos_.load(std::memory_order_relaxed) -
                dequeue_pos_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(io_mu_);
  out.flushed = log_->flushed_lsn();
  out.durable = log_->durable_lsn();
  out.bytes = log_->bytes();
  out.segments_created = log_->segments_created();
  out.segments_live = log_->segments().size();
  out.fsyncs = log_->fsyncs();
  out.flush_lag_us = flush_lag_us_;
  out.dead = log_->dead();
  return out;
}

double TelemetryLog::BacklogFraction() const {
  uint64_t backlog = enqueue_pos_.load(std::memory_order_relaxed) -
                     dequeue_pos_.load(std::memory_order_relaxed);
  return static_cast<double>(backlog) /
         static_cast<double>(options_.ring_capacity);
}

std::vector<std::string> TelemetryLog::SegmentPaths() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  std::vector<std::string> out;
  for (const fault::Segment& seg : log_->segments()) {
    out.push_back(seg.path);
  }
  return out;
}

std::string TelemetryLog::FlightSectionJson() const {
  TelemetryLogStats s = stats();
  std::string out = "{\"dir\":\"" + JsonEscape(options_.dir) + "\"";
  out += ",\"fsync\":\"" + std::string(FsyncPolicyName(options_.fsync)) +
         "\"";
  out += ",\"appended\":" + std::to_string(s.appended);
  out += ",\"dropped\":" + std::to_string(s.dropped);
  out += ",\"flushed\":" + std::to_string(s.flushed);
  out += ",\"durable\":" + std::to_string(s.durable);
  out += ",\"bytes\":" + std::to_string(s.bytes);
  out += ",\"fsyncs\":" + std::to_string(s.fsyncs);
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

}  // namespace dbm::obs::blackbox
