#include "spans.h"

#include <cstdio>
#include <memory>

#include "stats.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLoop: return "loop";
    case Layer::kSubmit: return "patia.submit";
    case Layer::kDoorTick: return "patia.door_tick";
    case Layer::kServerTick: return "patia.server_tick";
    case Layer::kAtom: return "bench.atom";
    case Layer::kQuery: return "query.exec";
    case Layer::kAppend: return "storage.append";
    case Layer::kFlush: return "storage.flush";
    case Layer::kCheckpoint: return "storage.checkpoint";
    case Layer::kRead: return "storage.read";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanLog::set_enabled(bool on) {
  // Room for a long traced phase up front: growing the log mid-phase
  // would copy every span inside some other span's interval. Untouched
  // capacity costs no resident memory.
  if (on && spans_.capacity() == 0) spans_.reserve(size_t{1} << 23);
  enabled_ = on;
}

void SpanLog::Begin(Layer layer, uint64_t request, uint8_t tag) {
  Span s;
  s.layer = layer;
  s.request = request;
  s.tag = tag;
  s.parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back(s);
  // Stamp last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = NowNs();
}

void SpanLog::End() {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(open_.back())].end_ns = now;
  open_.pop_back();
}

dbm::Result<SpanLog::Breakdown> SpanLog::SelfTimes() const {
  if (!open_.empty()) {
    return dbm::Status::Internal("span log has open spans");
  }
  Breakdown b;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      return dbm::Status::Internal("span ends before it starts");
    }
    const int64_t dur = s.end_ns - s.start_ns;
    if (s.parent < 0) {
      b.top_level_ns += dur;
      continue;
    }
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return dbm::Status::Internal(std::string("span ") + LayerName(s.layer) +
                                   " leaves its parent " +
                                   LayerName(p.layer));
    }
    child_ns[static_cast<size_t>(s.parent)] += dur;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t self = s.end_ns - s.start_ns - child_ns[i];
    if (self < 0) {
      return dbm::Status::Internal(std::string("negative self time in ") +
                                   LayerName(s.layer));
    }
    const size_t l = static_cast<size_t>(s.layer);
    b.self_ns[l] += self;
    b.count[l] += 1;
  }
  return b;
}

dbm::Status SpanLog::WriteTsv(const std::string& path, size_t limit) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (f == nullptr) return dbm::Status::IoError("cannot write " + path);
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f.get(), "span\tparent\trequest\tlayer\ttag\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size() && i < limit; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(), "%zu\t%d\t%llu\t%s\t%u\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.request),
                 LayerName(s.layer), static_cast<unsigned>(s.tag),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  return std::ferror(f.get()) != 0
             ? dbm::Status::IoError("short write to " + path)
             : dbm::Status::OK();
}

}  // namespace perfbench
