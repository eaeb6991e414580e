// Observatory overhead — the cost of being watchable.
//
// The Fig-1 loop publishes gauges every tick; if publishing allocates,
// the observer perturbs the observed. This bench measures the resolved-
// channel MetricBus publish path and *asserts* it is allocation-free in
// steady state (the shared dbm_alloc_hook counting allocator — the same
// counter EXPLAIN ANALYZE attributes), then prices the derived-gauge
// recompute and the endpoint renderers so EXPERIMENTS.md can quote what
// introspection costs.

#include <chrono>

#include "adapt/derived.h"
#include "adapt/metrics.h"
#include "bench/bench_util.h"
#include "obs/alloc_hook.h"
#include "obs/health.h"
#include "obs/observatory.h"

namespace {

using namespace dbm;

double HostSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(&argc, argv);
  bench::Header("BENCH-OBSERVATORY", "publish path + introspection cost");
  dbm::obs::InstallCountingAllocator();

  adapt::MetricBus bus;
  adapt::MetricBus::Channel* ch = bus.GetChannel("processor-util");

  // Warm-up: first publishes may still grow ring internals.
  for (int i = 0; i < 1024; ++i) {
    bus.Publish(ch, 0.5, static_cast<SimTime>(i));
  }

  constexpr uint64_t kPublishes = 2'000'000;
  uint64_t allocs_before = obs::AllocCount();
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kPublishes; ++i) {
    bus.Publish(ch, 0.5 + (i & 7) * 0.01,
                static_cast<SimTime>(1024 + i));
  }
  double publish_s = HostSeconds(t0);
  uint64_t publish_allocs = obs::AllocCount() - allocs_before;

  bench::Table t({34, 16, 16});
  t.Row({"path", "ops", "ns/op"});
  t.Rule();
  t.Row({"MetricBus::Publish (resolved)", bench::FmtU(kPublishes),
         bench::Fmt("%.1f", publish_s * 1e9 / kPublishes)});

  // Derived gauge recompute over the retained window.
  adapt::DerivedPublisher derived(&bus);
  adapt::DerivedSpec spec;
  spec.source = "processor-util";
  spec.kind = adapt::DerivedKind::kP95;
  (void)derived.Add(spec);
  spec.kind = adapt::DerivedKind::kRate;
  (void)derived.Add(spec);
  constexpr uint64_t kTicks = 50'000;
  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kTicks; ++i) {
    derived.Tick(static_cast<SimTime>(1024 + kPublishes + i * 1000));
  }
  double tick_s = HostSeconds(t0);
  t.Row({"DerivedPublisher::Tick (2 specs)", bench::FmtU(kTicks),
         bench::Fmt("%.1f", tick_s * 1e9 / kTicks)});

  // Endpoint render cost (registry has the bus mirrors + bench counters).
  constexpr uint64_t kRenders = 2'000;
  t0 = std::chrono::steady_clock::now();
  size_t bytes = 0;
  for (uint64_t i = 0; i < kRenders; ++i) {
    bytes += obs::PrometheusText().size();
  }
  double prom_s = HostSeconds(t0);
  t.Row({"PrometheusText", bench::FmtU(kRenders),
         bench::Fmt("%.0f", prom_s * 1e9 / kRenders)});
  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kRenders; ++i) {
    bytes += obs::HealthJson(static_cast<int64_t>(i)).size();
  }
  double health_s = HostSeconds(t0);
  t.Row({"HealthJson", bench::FmtU(kRenders),
         bench::Fmt("%.0f", health_s * 1e9 / kRenders)});
  (void)bytes;

  bench::Note("steady-state publish allocations: " +
              std::to_string(publish_allocs) + " (must be 0)");
  if (publish_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: resolved-channel publish allocated %llu times\n",
                 static_cast<unsigned long long>(publish_allocs));
    return 1;
  }

  obs::Registry::Default().GetCounter("bench.observatory.publishes")
      .Add(kPublishes);
  bench::MetricsSidecar("BENCH-OBSERVATORY");
  return 0;
}
