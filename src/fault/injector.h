// Deterministic, seed-driven fault injection.
//
// The paper's scenarios presuppose surviving failure — streams replayed
// from safe points, components swapped mid-query — but a simulator with
// no failure model can never exercise those paths. The Injector is a
// passive decision oracle: instrumented sites ("fault points") ask it
// whether a fault fires *here, now*, and act the consequence out
// themselves (the ORB fails a call, the network treats a link as down,
// the stream crashes). Faults are configured per run from a small spec
// string, e.g.
//
//   orb.invoke:error@0.01;net.wireless:flap@5ms;net.stream:crash@0.02
//
// Grammar: `point:kind[@value]` joined by ';'. Kinds and their value:
//   error@P      probabilistic failure, P in [0,1] (or "1%")
//   crash@P      probabilistic component crash (the target dies, not
//                just the call)
//   hang@P       probabilistic hang — the call never returns; a
//                supervising deadline converts it to DeadlineExceeded
//   latency@D    added delay on EVERY pass through the point; D is in
//                cycles at ORB points ("40" / "40cy"), simulated time
//                elsewhere ("200us", "5ms", "1s"; bare number = µs)
//   flap@D       time-windowed link outage: down during every odd
//                window of length D (deterministic in sim time)
//   partition@T  link permanently down from sim time T onward
//
// Determinism: each point owns an Rng seeded from (run seed ⊕
// FNV-1a(point name)), so decision sequences are reproducible per point
// regardless of the order points are first touched, and two runs with
// the same seed and spec inject byte-identical fault schedules.
//
// The process-wide Default() injector reads DBM_FAULT_SPEC /
// DBM_FAULT_SEED from the environment on first use — how the chaos CI
// job arms whole test binaries without touching their code. Disabled
// (the usual case) a fault-point check is one relaxed atomic load.

#ifndef DBM_FAULT_INJECTOR_H_
#define DBM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace dbm::fault {

enum class FaultKind : uint8_t {
  kError,
  kCrash,
  kHang,
  kLatency,
  kFlap,
  kPartition,
};
const char* FaultKindName(FaultKind kind);

/// One armed rule at a point, parsed from `kind@value`.
struct FaultRule {
  FaultKind kind;
  double probability = 1.0;  // error / crash / hang
  int64_t value = 0;         // latency (cycles or µs), flap window, or
                             // partition start (µs)
};

/// The per-call verdict a site acts out. `latency` accumulates across
/// rules; error/crash/hang are mutually exclusive with crash strongest.
struct Decision {
  bool error = false;
  bool crash = false;
  bool hang = false;
  int64_t latency = 0;

  bool any() const { return error || crash || hang || latency != 0; }
};

/// A named fault point. Sites resolve the handle once (like metric
/// handles) and check `armed()` on the hot path.
class Point {
 public:
  explicit Point(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// One relaxed load; false whenever no rule is armed here.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Draws the per-call verdict (advances this point's Rng — call once
  /// per traversal). Cheap no-op when unarmed.
  Decision Decide();

  /// Time-windowed verdict for flap/partition rules: is the guarded
  /// resource down at `now`? Does not consume randomness.
  bool DownAt(SimTime now) const;

  // Configuration plumbing (Injector only).
  void Arm(const FaultRule& rule, uint64_t point_seed);
  void Disarm();
  const std::vector<FaultRule>& rules() const { return rules_; }

 private:
  std::string name_;
  std::atomic<bool> armed_{false};
  std::vector<FaultRule> rules_;
  Rng rng_;
};

/// The per-run fault schedule. Configure() replaces it wholesale;
/// Reset() disarms everything. Point handles stay valid across both
/// (they are never deallocated), mirroring the metric-handle discipline.
class Injector {
 public:
  Injector() = default;

  /// The process-wide injector every built-in fault point consults.
  /// First use reads DBM_FAULT_SPEC / DBM_FAULT_SEED from the
  /// environment (unset → disabled; seed unset → 1). A malformed spec or
  /// seed aborts the process rather than run a different schedule.
  static Injector& Default();

  /// Parses `spec` and arms the named points under `seed`. An empty
  /// spec disarms everything (equivalent to Reset).
  Status Configure(std::string_view spec, uint64_t seed);

  /// Disarms every point; handles remain valid.
  void Reset();

  /// True when any point is armed — the coarse whole-run check.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Resolves (creating if needed) the handle for `name`. Resolve once,
  /// keep the pointer; never invalidated.
  Point* GetPoint(const std::string& name);

  const std::string& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }

 private:
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::unique_ptr<Point>> points_;
  std::string spec_;
  uint64_t seed_ = 0;
};

/// Parses one spec string into (point, rule) pairs without arming
/// anything — exposed for tests and tools.
Status ParseFaultSpec(std::string_view spec,
                      std::vector<std::pair<std::string, FaultRule>>* out);

}  // namespace dbm::fault

#endif  // DBM_FAULT_INJECTOR_H_
