// Host clocks, percentiles and process facts for the benchmark driver.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
int64_t NowNs();

/// A distribution of non-negative integers in fixed memory: 64 buckets
/// per power of two, each keeping its count and the sum of its samples.
/// The memory it takes is the same however many samples it holds, so
/// recording a served request costs the process no resident memory.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(uint64_t v);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return n_; }

  /// The mean of the samples in the bucket holding the sample of 0-based
  /// rank `k` (k < count()). It lies within 1.6% of that sample and keeps
  /// the digits a measured value has.
  double AtRank(uint64_t k) const;

 private:
  std::vector<uint64_t> counts_;
  std::vector<double> sums_;
  uint64_t n_ = 0;
};

/// A timing distribution as the benchmark reports it: the median plus
/// the highest percentile, up to p99, that still has at least ten
/// samples beyond it.
struct Timing {
  uint64_t n = 0;
  double median = 0;
  double tail = 0;
  double tail_pct = 0;  // the percentile `tail` sits at, in [0, 100]
};

/// Summarises `h`, dividing every value by `unit` (1e6 turns ns into ms).
Timing Summarize(const LatencyHistogram& h, double unit);

/// Nearest-rank quantile of `h`, in its own unit; 0 for no samples.
double Quantile(const LatencyHistogram& h, double q);

double Median(std::vector<double> values);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// The filesystem type holding `path` ("ext4", "tmpfs", ...).
std::string FsType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
