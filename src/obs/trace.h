// Host-time trace scopes.
//
// Two time bases coexist in the reproduction (see src/common/sim_clock.h):
// simulated cycles on a deterministic os::CycleLedger, charged by the
// code that does the simulated work (the ORB records its per-hop cycles
// itself), and real host time for "is the simulator itself fast"
// questions. TraceSpan measures the second: host TSC ticks (rdtsc;
// steady_clock ns elsewhere) into a Histogram, for wall-clock profiling
// of the engine itself. Spans nest freely.

#ifndef DBM_OBS_TRACE_H_
#define DBM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace dbm::obs {

/// Monotonic host tick counter: TSC on x86, steady_clock ns elsewhere.
inline uint64_t NowTicks() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// RAII scope recording elapsed host ticks into a Histogram.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* hist) : hist_(hist), start_(NowTicks()) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (hist_ != nullptr) hist_->Record(NowTicks() - start_);
  }

  uint64_t ElapsedTicks() const { return NowTicks() - start_; }

 private:
  Histogram* hist_;
  uint64_t start_;
};

}  // namespace dbm::obs

#endif  // DBM_OBS_TRACE_H_
