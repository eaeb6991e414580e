#include "stats.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int kSubBits = 6;  // 64 buckets per power of two
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

/// Values below kSub have a bucket each; above, the power of two picks a
/// row of kSub buckets and the next kSubBits bits pick the bucket.
size_t Bucket(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int e = std::bit_width(v) - 1;  // >= kSubBits
  return static_cast<size_t>(e - kSubBits + 1) * kSub +
         static_cast<size_t>((v >> (e - kSubBits)) & (kSub - 1));
}

/// Nearest-rank index of quantile q in n sorted samples.
uint64_t RankIndex(uint64_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return rank < 1 ? 0 : std::min(n, static_cast<uint64_t>(rank)) - 1;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets), sums_(kBuckets) {}

void LatencyHistogram::Add(uint64_t v) {
  const size_t b = Bucket(v);
  ++counts_[b];
  sums_[b] += static_cast<double>(v);
  ++n_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    counts_[b] += other.counts_[b];
    sums_[b] += other.sums_[b];
  }
  n_ += other.n_;
}

double LatencyHistogram::AtRank(uint64_t k) const {
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    below += counts_[b];
    if (below > k) return sums_[b] / static_cast<double>(counts_[b]);
  }
  return 0;
}

Timing Summarize(const LatencyHistogram& h, double unit) {
  Timing t;
  t.n = h.count();
  if (t.n == 0) return t;
  t.median = h.AtRank(RankIndex(t.n, 0.5)) / unit;
  // Sample k (0-based) has n-1-k samples beyond it.
  const uint64_t k =
      std::min(t.n > 10 ? t.n - 11 : t.n - 1, RankIndex(t.n, 0.99));
  t.tail = h.AtRank(k) / unit;
  t.tail_pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(t.n);
  return t;
}

double Quantile(const LatencyHistogram& h, double q) {
  return h.count() == 0 ? 0.0 : h.AtRank(RankIndex(h.count(), q));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FsType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return hex;
}

}  // namespace perfbench
