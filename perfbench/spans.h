// Bench-side spans around the calls into each layer.
//
// Spans are recorded only by the benchmark's own code, around the public
// calls it makes: FrontDoor::Submit, the two Ticks, the atom body,
// ExecuteParallel, PagedRelation::Append/ReadAt, BufferManager::FlushAll
// and CheckpointWal. Everything runs on the event-loop thread, so the log
// is a plain vector plus an open-span stack. Each span carries its
// request id (0 for batch-level work such as a tick) and its parent.
//
// A layer's self time is its spans' durations minus the part their child
// spans cover. The measured phase runs the event loop in slices, each a
// root span (kLoop) whose self time is what no other span covers: the
// event loop, the network transfer simulation, the client swarm and the
// bench adapter. The self times therefore sum to the measured wall time
// minus the driver's own work between slices, which the traced run
// checks is small, the way EXPLAIN ANALYZE checks that its nodes sum to
// the total.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

enum class Layer : uint8_t {
  kLoop,         // one slice of EventLoop::RunUntil in the measured phase
  kSubmit,       // FrontDoor::Submit
  kDoorTick,     // FrontDoor::Tick (dispatch runs the atom bodies)
  kServerTick,   // PatiaServer::Tick
  kAtom,         // the dynamic atom body (bench code around the calls)
  kQuery,        // query::ExecuteParallel
  kAppend,       // PagedRelation::Append, one span per written batch
  kFlush,        // BufferManager::FlushAll
  kCheckpoint,   // BufferManager::CheckpointWal
  kRead,         // PagedRelation::ReadAt, one span per point-read batch
  kCount,
};

inline constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

class SpanLog {
 public:
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;  // 0 while open
    uint64_t request = 0;
    int32_t parent = -1;  // index into spans(), -1 = top level
    Layer layer = Layer::kLoop;
    uint8_t tag = 0;  // the request's op, for per-op breakdowns
  };

  /// A disabled log records nothing; Scope costs one branch. Logs start
  /// disabled: the measured phase enables a traced log, so set-up and
  /// warm-up calls stay out of it.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on);
  const std::vector<Span>& spans() const { return spans_; }

  void Begin(Layer layer, uint64_t request, uint8_t tag);
  void End();

  class Scope {
   public:
    Scope(SpanLog* log, Layer layer, uint64_t request = 0, uint8_t tag = 0)
        : log_(log->enabled() ? log : nullptr) {
      if (log_ != nullptr) log_->Begin(layer, request, tag);
    }
    ~Scope() {
      if (log_ != nullptr) log_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  struct Breakdown {
    std::array<int64_t, kLayers> self_ns{};
    std::array<uint64_t, kLayers> count{};
    int64_t top_level_ns = 0;  // Σ durations of top-level spans
  };

  /// Self time per layer. Fails when a span is still open, ends before it
  /// starts, leaves its parent's interval, or has a negative self time.
  dbm::Result<Breakdown> SelfTimes() const;

  /// Writes one line per span (the first `limit` spans): index, parent,
  /// request, layer, tag, start and end (ns, relative to the first span).
  dbm::Status WriteTsv(const std::string& path, size_t limit) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
