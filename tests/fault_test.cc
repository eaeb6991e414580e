// Tests for the fault plane: spec parsing and injector determinism under
// a fixed seed, the circuit-breaker state machine including the half-open
// probe, supervised ORB invocation (retries, deadlines, crash-revocation,
// breaker-driven rejection), safe-point checkpoint/replay byte-for-byte,
// the scenario-2 mid-switchover kill (zero lost atoms), the supervised
// scenario-2 breaker SWITCH joined to its DecisionRecord by trace id, the
// reconfigure probe rollback, and the flight recorder's "faults" section
// on an unrecovered crash.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/logging.h"
#include "common/status.h"
#include "component/reconfigure.h"
#include "component/registry.h"
#include "dbmachine/scenarios.h"
#include "fault/breaker.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "fault/recovery.h"
#include "net/network.h"
#include "net/sensor_stream.h"
#include "obs/observatory.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/tracectx.h"
#include "os/go_system.h"
#include "os/scanner.h"

namespace dbm {
namespace {

using fault::CircuitBreaker;
using fault::Decision;
using fault::FaultEvent;
using fault::FaultEventKind;
using fault::FaultKind;
using fault::FaultLog;
using fault::FaultRule;
using fault::Injector;

/// Arms the process injector for one test and disarms on exit, so fault
/// specs cannot leak into neighbouring tests (the same epoch discipline
/// as DefaultTracerEpoch in trace_test).
struct ScopedSpec {
  ScopedSpec(const std::string& spec, uint64_t seed) {
    Status s = Injector::Default().Configure(spec, seed);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ScopedSpec() { Injector::Default().Reset(); }
};

/// Arms process-wide trace sampling for one test and restores dormancy.
struct DefaultTracerEpoch {
  explicit DefaultTracerEpoch(double sample_rate) {
    obs::TracerOptions opt;
    opt.sample_rate = sample_rate;
    obs::Tracer::Default().Configure(opt);
    obs::Tracer::Default().Clear();
  }
  ~DefaultTracerEpoch() {
    obs::Tracer::Default().Configure(obs::TracerOptions{});
  }
};

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesTheGrammar) {
  std::vector<std::pair<std::string, FaultRule>> rules;
  ASSERT_TRUE(fault::ParseFaultSpec(
                  "orb.invoke:error@0.01; net.wireless:flap@5ms;"
                  "net.stream:crash@2%;orb.invoke:latency@40;"
                  "net.uplink:partition@1s;svc:hang",
                  &rules)
                  .ok());
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_EQ(rules[0].first, "orb.invoke");
  EXPECT_EQ(rules[0].second.kind, FaultKind::kError);
  EXPECT_DOUBLE_EQ(rules[0].second.probability, 0.01);
  EXPECT_EQ(rules[1].first, "net.wireless");
  EXPECT_EQ(rules[1].second.kind, FaultKind::kFlap);
  EXPECT_EQ(rules[1].second.value, 5000);  // 5ms in µs
  EXPECT_DOUBLE_EQ(rules[2].second.probability, 0.02);  // "2%"
  EXPECT_EQ(rules[3].second.kind, FaultKind::kLatency);
  EXPECT_EQ(rules[3].second.value, 40);  // bare number: site's time base
  EXPECT_EQ(rules[4].second.value, 1000000);
  // Probabilistic kinds default to certainty when no value is given.
  EXPECT_EQ(rules[5].second.kind, FaultKind::kHang);
  EXPECT_DOUBLE_EQ(rules[5].second.probability, 1.0);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  std::vector<std::pair<std::string, FaultRule>> rules;
  EXPECT_TRUE(fault::ParseFaultSpec("orb.invoke:explode@1", &rules)
                  .IsParseError());
  EXPECT_TRUE(fault::ParseFaultSpec("no-colon-here", &rules).IsParseError());
  EXPECT_TRUE(fault::ParseFaultSpec("p:error@1.5", &rules).IsParseError());
  EXPECT_TRUE(fault::ParseFaultSpec("p:error@10%ms", &rules).IsParseError());
  EXPECT_TRUE(fault::ParseFaultSpec("p:latency@40lightyears", &rules)
                  .IsParseError());
  EXPECT_TRUE(fault::ParseFaultSpec("p:latency", &rules).IsParseError());
  // A malformed spec must not half-arm the injector.
  Injector inj;
  EXPECT_FALSE(inj.Configure("a:error@1;b:nonsense@2", 1).ok());
  EXPECT_FALSE(inj.enabled());
}

// The environment arms the process-wide injector; a seed that does not
// parse whole must stop the run like a bad spec does, not become seed 0.
TEST(FaultSpecDeathTest, MalformedEnvironmentSeedAborts) {
  // Re-executing the binary gives the child a Default() not yet built.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* seed : {"abc", "17x", "-1"}) {
    EXPECT_DEATH(
        {
          setenv("DBM_FAULT_SPEC", "test.point:error@0.5", 1);
          setenv("DBM_FAULT_SEED", seed, 1);
          (void)Injector::Default();
        },
        "DBM_FAULT_SEED rejected")
        << seed;
  }
}

// ---------------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------------

std::vector<Decision> Draw(fault::Point* p, int n) {
  std::vector<Decision> out;
  for (int i = 0; i < n; ++i) out.push_back(p->Decide());
  return out;
}

TEST(InjectorTest, SameSeedSameSpecSameSchedule) {
  const std::string spec = "a:error@0.3;a:latency@7;b:crash@0.2";
  Injector one, two;
  ASSERT_TRUE(one.Configure(spec, 99).ok());
  ASSERT_TRUE(two.Configure(spec, 99).ok());
  for (const char* name : {"a", "b"}) {
    auto lhs = Draw(one.GetPoint(name), 300);
    auto rhs = Draw(two.GetPoint(name), 300);
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].error, rhs[i].error) << name << " draw " << i;
      EXPECT_EQ(lhs[i].crash, rhs[i].crash) << name << " draw " << i;
      EXPECT_EQ(lhs[i].latency, rhs[i].latency) << name << " draw " << i;
    }
  }

  // A different seed produces a different schedule (300 Bernoulli(0.3)
  // draws colliding across seeds is a ~2^-300 event).
  Injector other;
  ASSERT_TRUE(other.Configure(spec, 100).ok());
  auto base = Draw(one.GetPoint("a"), 300);
  auto moved = Draw(other.GetPoint("a"), 300);
  bool any_differ = false;
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].error != moved[i].error) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(InjectorTest, PointSeedsAreOrderIndependent) {
  // Touching points in different orders must not change their streams:
  // each is seeded from (run seed ⊕ FNV-1a(name)), not from creation
  // order.
  Injector fwd, rev;
  ASSERT_TRUE(fwd.Configure("a:error@0.5;b:error@0.5", 7).ok());
  ASSERT_TRUE(rev.Configure("b:error@0.5;a:error@0.5", 7).ok());
  auto fa = Draw(fwd.GetPoint("a"), 100);
  auto ra = Draw(rev.GetPoint("a"), 100);
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].error, ra[i].error) << "draw " << i;
  }
}

TEST(InjectorTest, HandlesSurviveReconfigure) {
  Injector inj;
  fault::Point* p = inj.GetPoint("x");
  EXPECT_FALSE(p->armed());
  EXPECT_FALSE(p->Decide().any());  // unarmed points are cheap no-ops
  ASSERT_TRUE(inj.Configure("x:latency@9", 1).ok());
  EXPECT_EQ(inj.GetPoint("x"), p);  // same handle, never invalidated
  EXPECT_TRUE(p->armed());
  EXPECT_EQ(p->Decide().latency, 9);
  ASSERT_TRUE(inj.Configure("", 0).ok());  // empty spec disarms
  EXPECT_FALSE(p->armed());
  EXPECT_FALSE(inj.enabled());
}

TEST(InjectorTest, FlapAndPartitionWindows) {
  Injector inj;
  ASSERT_TRUE(inj.Configure("link:flap@10us", 1).ok());
  fault::Point* p = inj.GetPoint("link");
  EXPECT_FALSE(p->DownAt(0));    // even window: up
  EXPECT_FALSE(p->DownAt(9));
  EXPECT_TRUE(p->DownAt(10));    // odd window: down
  EXPECT_TRUE(p->DownAt(19));
  EXPECT_FALSE(p->DownAt(20));
  EXPECT_TRUE(p->DownAt(30));

  ASSERT_TRUE(inj.Configure("link:partition@100us", 1).ok());
  EXPECT_FALSE(p->DownAt(99));
  EXPECT_TRUE(p->DownAt(100));   // permanently down from T onward
  EXPECT_TRUE(p->DownAt(100000));
}

// ---------------------------------------------------------------------------
// Status taxonomy
// ---------------------------------------------------------------------------

TEST(StatusRetryable, TransientVsPermanent) {
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsRetryable());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsRetryable());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());
  // Aborted means a transaction-style backoff already happened; blind
  // retry would repeat the conflicting work.
  EXPECT_FALSE(Status::Aborted("x").IsRetryable());
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(BreakerTest, TripsAfterConsecutiveFailuresAndCoolsDown) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 3;
  opts.cooldown = 100;
  CircuitBreaker b(opts);
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> log;
  b.set_on_transition([&](CircuitBreaker::State from,
                          CircuitBreaker::State to, int64_t) {
    log.emplace_back(from, to);
  });

  // Failures below the threshold keep it closed; a success resets the run.
  EXPECT_TRUE(b.Allow(0));
  b.RecordFailure(1);
  b.RecordFailure(2);
  EXPECT_EQ(b.consecutive_failures(), 2);
  b.RecordSuccess(3);
  EXPECT_EQ(b.consecutive_failures(), 0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);

  b.RecordFailure(4);
  b.RecordFailure(5);
  b.RecordFailure(6);  // third consecutive: trips
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.trips(), 1u);

  // Open: nothing admitted until the cooldown elapses.
  EXPECT_FALSE(b.Allow(7));
  EXPECT_FALSE(b.Allow(105));
  // 6 + 100 = 106: half-open, exactly one probe admitted.
  EXPECT_TRUE(b.Allow(106));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.Allow(107));  // second caller rejected while probing
  b.RecordSuccess(108);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.Allow(109));

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].second, CircuitBreaker::State::kOpen);
  EXPECT_EQ(log[1].second, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(log[2].second, CircuitBreaker::State::kClosed);
}

TEST(BreakerTest, FailedProbeRetripsWithRestartedCooldown) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 1;
  opts.cooldown = 100;
  CircuitBreaker b(opts);
  b.RecordFailure(0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(b.Allow(100));  // probe
  b.RecordFailure(101);       // probe fails: straight back to open
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.trips(), 2u);
  // The cooldown restarted at 101, not 0.
  EXPECT_FALSE(b.Allow(150));
  EXPECT_TRUE(b.Allow(201));
  b.RecordSuccess(202);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST(BreakerTest, MultipleProbeSuccessesToClose) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 1;
  opts.cooldown = 10;
  opts.successes_to_close = 2;
  CircuitBreaker b(opts);
  b.RecordFailure(0);
  EXPECT_TRUE(b.Allow(10));
  b.RecordSuccess(11);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);  // 1 of 2
  EXPECT_TRUE(b.Allow(12));
  b.RecordSuccess(13);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Supervised ORB invocation
// ---------------------------------------------------------------------------

TEST(SupervisedOrbTest, PolicyCostsOnlyTheSupervisionTax) {
  os::GoSystem sys;
  auto loaded = sys.LoadWithService(os::images::NullServer("svc"));
  ASSERT_TRUE(loaded.ok());
  os::InterfaceId iface = loaded->second;

  os::Cycles before = sys.ledger().total();
  ASSERT_TRUE(sys.orb().Call(iface).ok());
  os::Cycles bare = sys.ledger().total() - before;

  ASSERT_TRUE(sys.orb().SetCallPolicy(iface, os::CallPolicy{}).ok());
  before = sys.ledger().total();
  ASSERT_TRUE(sys.orb().Call(iface).ok());
  os::Cycles supervised = sys.ledger().total() - before;

  // Table 1's 73-cycle hop plus exactly the supervision bookkeeping.
  EXPECT_EQ(supervised, bare + sys.orb().costs().supervision);
  EXPECT_EQ(sys.orb().BreakerState(iface), 0);
}

TEST(SupervisedOrbTest, InjectedErrorsRetryThenTripTheBreaker) {
  ScopedSpec faults("orb.invoke:error@1", 42);
  os::GoSystem sys;
  auto loaded = sys.LoadWithService(os::images::NullServer("flaky"));
  ASSERT_TRUE(loaded.ok());
  os::InterfaceId iface = loaded->second;
  os::CallPolicy policy;
  policy.max_retries = 2;
  policy.breaker_threshold = 3;
  policy.breaker_cooldown = 100;
  ASSERT_TRUE(sys.orb().SetCallPolicy(iface, policy).ok());

  // Metric names use the interface's declared name — "serve" for the
  // NullServer image. Registry metrics are global and cumulative, so all
  // assertions are deltas.
  obs::Registry& reg = obs::Registry::Default();
  uint64_t retries0 = reg.GetCounter("orb.serve.retries").value();
  uint64_t rejected0 = reg.GetCounter("orb.serve.rejected").value();
  uint64_t trips0 = reg.GetCounter("orb.serve.breaker_trips").value();

  // Every attempt fails: 1 try + 2 retries = 3 consecutive failures, so
  // the breaker opens within this one call.
  Status s = sys.orb().Call(iface);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(reg.GetCounter("orb.serve.retries").value() - retries0, 2u);
  EXPECT_EQ(reg.GetCounter("orb.serve.breaker_trips").value() - trips0, 1u);
  EXPECT_EQ(sys.orb().BreakerState(iface), 2);
  EXPECT_EQ(reg.GetGauge("orb.serve.breaker_state").value(), 2.0);

  // The next call is rejected without touching the callee.
  uint64_t invocations = sys.orb().invocation_count();
  s = sys.orb().Call(iface);
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_NE(s.message().find("circuit breaker open"), std::string::npos);
  EXPECT_EQ(sys.orb().invocation_count(), invocations);
  EXPECT_EQ(reg.GetCounter("orb.serve.rejected").value() - rejected0, 1u);

  // Heal the fault, burn past the cooldown (each rejected call charges
  // its supervision cycles), and the half-open probe re-closes it.
  Injector::Default().Reset();
  while (sys.orb().BreakerState(iface) == 2) {
    Status probe = sys.orb().Call(iface);
    if (probe.ok()) break;
  }
  EXPECT_TRUE(sys.orb().Call(iface).ok());
  EXPECT_EQ(sys.orb().BreakerState(iface), 0);
  EXPECT_EQ(reg.GetGauge("orb.flaky.breaker_state").value(), 0.0);
}

TEST(SupervisedOrbTest, InjectedHangConvertsToDeadlineExceeded) {
  ScopedSpec faults("orb.invoke:hang@1", 7);
  os::GoSystem sys;
  auto loaded = sys.LoadWithService(os::images::NullServer("hangs"));
  ASSERT_TRUE(loaded.ok());
  os::CallPolicy policy;
  policy.deadline = 500;
  policy.max_retries = 1;
  ASSERT_TRUE(sys.orb().SetCallPolicy(loaded->second, policy).ok());

  obs::Registry& reg = obs::Registry::Default();
  uint64_t timeouts0 = reg.GetCounter("orb.serve.timeouts").value();
  os::Cycles before = sys.ledger().total();
  Status s = sys.orb().Call(loaded->second);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  // Both attempts hung and each was billed its full deadline budget.
  EXPECT_EQ(reg.GetCounter("orb.serve.timeouts").value() - timeouts0, 2u);
  EXPECT_GE(sys.ledger().total() - before, 2u * policy.deadline);
}

TEST(SupervisedOrbTest, InjectedCrashRevokesTheInterface) {
  ScopedSpec faults("orb.invoke:crash@1", 7);
  os::GoSystem sys;
  auto loaded = sys.LoadWithService(os::images::NullServer("doomed"));
  ASSERT_TRUE(loaded.ok());
  os::InterfaceId iface = loaded->second;
  os::CallPolicy policy;
  policy.max_retries = 2;
  policy.breaker_threshold = 3;
  ASSERT_TRUE(sys.orb().SetCallPolicy(iface, policy).ok());

  size_t live = sys.orb().interface_count();
  Status s = sys.orb().Call(iface);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // The component died: its interface is gone and the retries that
  // followed saw the corpse, so the breaker tripped too.
  EXPECT_EQ(sys.orb().interface_count(), live - 1);
  EXPECT_EQ(sys.orb().BreakerState(iface), 2);

  // Even with faults disarmed the interface stays dead: the breaker
  // rejects, and were it to probe, the revoked-interface check fails it.
  Injector::Default().Reset();
  EXPECT_TRUE(sys.orb().Call(iface).IsUnavailable());
}

TEST(SupervisedOrbTest, InjectedLatencyCountsAgainstTheDeadline) {
  ScopedSpec faults("orb.invoke:latency@600", 7);
  os::GoSystem sys;
  auto loaded = sys.LoadWithService(os::images::NullServer("slow"));
  ASSERT_TRUE(loaded.ok());
  os::CallPolicy policy;
  policy.deadline = 200;  // 600 injected cycles blow a 200-cycle budget
  policy.max_retries = 0;
  ASSERT_TRUE(sys.orb().SetCallPolicy(loaded->second, policy).ok());
  Status s = sys.orb().Call(loaded->second);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

// ---------------------------------------------------------------------------
// SISR scanner fault point
// ---------------------------------------------------------------------------

TEST(ScannerFaultTest, InjectedSegmentFaultRejectsACleanImage) {
  os::SisrScanner scanner;
  ASSERT_TRUE(scanner.Scan(os::images::Adder()).accepted);
  ScopedSpec faults("scanner.segment:error@1", 3);
  os::ScanReport r = scanner.Scan(os::images::Adder());
  EXPECT_FALSE(r.accepted);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].reason.find("injected"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Safe-point recovery
// ---------------------------------------------------------------------------

TEST(SafePointTest, CheckpointsAreMonotonicPerStream) {
  fault::StateManager sm;
  EXPECT_TRUE(sm.Latest("s").status().IsNotFound());
  ASSERT_TRUE(sm.Checkpoint("s", {1, 16, Millis(1), "xml"}).ok());
  ASSERT_TRUE(sm.Checkpoint("s", {2, 32, Millis(2), "lz"}).ok());
  // Regression is a protocol violation, not a silent overwrite.
  Status regressed = sm.Checkpoint("s", {1, 16, Millis(3), "xml"});
  EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition)
      << regressed.ToString();
  auto latest = sm.Latest("s");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->sequence, 2u);
  EXPECT_EQ(latest->position, 32u);
  EXPECT_EQ(latest->state, "lz");
  EXPECT_EQ(sm.checkpoints(), 2u);

  sm.CountReplay("s");
  EXPECT_EQ(sm.replays(), 1u);
  sm.Drop("s");
  EXPECT_TRUE(sm.Latest("s").status().IsNotFound());
}

TEST(SafePointTest, KilledStreamReplaysByteForByte) {
  // This test counts its one controlled Kill exactly, so the ambient
  // chaos-CI schedule (net.stream:crash) must not add crashes of its
  // own; InjectedStreamCrashesStillDeliverEverything covers that path.
  ScopedSpec quiet("", 0);
  EventLoop loop;
  net::Network net(&loop);
  net.AddDevice({"sensor", net::DeviceClass::kSensor, 0.05, 80, 0, 0});
  net.AddDevice({"laptop", net::DeviceClass::kLaptop, 1.0, 90, 3, 0});
  net.Connect("sensor", "laptop", {200, Millis(5), "wired"});

  data::Relation readings = data::gen::SensorReadings(400, 3);
  std::map<size_t, std::vector<data::Bytes>> wire_log;
  net::SensorStream::Options options;
  options.chunk_rows = 20;
  options.stream_name = "replay-test";
  options.on_wire = [&](size_t first_row, const data::Bytes& wire) {
    wire_log[first_row].push_back(wire);
  };
  net::SensorStream stream(&net, "sensor", "laptop", &readings, options);

  // Kill mid-delivery: chunks are back-to-back, so one is always in
  // flight. auto_resume brings it back from the last safe point.
  loop.ScheduleAt(Millis(200), [&] { stream.Kill(); });

  bool completed = false;
  ASSERT_TRUE(
      stream.Start([&](const net::SensorStream::Stats&) { completed = true; })
          .ok());
  loop.RunUntil();
  ASSERT_TRUE(completed);

  const net::SensorStream::Stats& stats = stream.stats();
  EXPECT_EQ(stats.rows_delivered, 400u);  // exactly once per counted row
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.replays, 1u);
  EXPECT_GE(stats.safe_points, 1u);

  // The interrupted chunk went over the wire at least twice; every
  // resend must be byte-identical to the original (codec state is part
  // of the checkpoint).
  size_t resent = 0;
  for (const auto& [first_row, copies] : wire_log) {
    for (size_t i = 1; i < copies.size(); ++i) {
      ++resent;
      ASSERT_EQ(copies[i].size(), copies[0].size())
          << "chunk at row " << first_row;
      EXPECT_EQ(std::memcmp(copies[i].data(), copies[0].data(),
                            copies[0].size()),
                0)
          << "chunk at row " << first_row;
    }
  }
  EXPECT_GE(resent, 1u);
}

TEST(SafePointTest, InjectedStreamCrashesStillDeliverEverything) {
  // net.stream:crash@0.05 under a fixed seed: several chunks die on the
  // way out, each replays, nothing is lost and nothing double-counted.
  ScopedSpec faults("net.stream:crash@0.05", 11);
  EventLoop loop;
  net::Network net(&loop);
  net.AddDevice({"sensor", net::DeviceClass::kSensor, 0.05, 80, 0, 0});
  net.AddDevice({"laptop", net::DeviceClass::kLaptop, 1.0, 90, 3, 0});
  net.Connect("sensor", "laptop", {500, Millis(2), "wired"});

  data::Relation readings = data::gen::SensorReadings(600, 5);
  net::SensorStream::Options options;
  options.chunk_rows = 16;
  options.stream_name = "chaos-stream";
  net::SensorStream stream(&net, "sensor", "laptop", &readings, options);
  bool completed = false;
  ASSERT_TRUE(
      stream.Start([&](const net::SensorStream::Stats&) { completed = true; })
          .ok());
  loop.RunUntil();
  ASSERT_TRUE(completed);
  EXPECT_EQ(stream.stats().rows_delivered, 600u);
  EXPECT_EQ(stream.stats().crashes, stream.stats().replays);
}

// ---------------------------------------------------------------------------
// Scenario 2 under fire
// ---------------------------------------------------------------------------

TEST(Scenario2FaultTest, MidSwitchoverKillLosesNoAtoms) {
  machine::Scenario2Config config;
  config.kill_mid_switchover = true;
  auto report = machine::RunScenario2(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->lost_rows, 0u);
  EXPECT_EQ(report->stream.rows_delivered, config.rows);
  EXPECT_GE(report->replays, 1u);
  EXPECT_GE(report->stream.crashes, 1u);
  EXPECT_TRUE(report->reconfigured);  // the switchover still happened
  EXPECT_TRUE(report->conforms_wireless);
}

TEST(Scenario2FaultTest, BreakerSwitchJoinsFaultsToDecisionByTraceId) {
  DefaultTracerEpoch epoch(1.0);
  FaultLog::Default().Clear();

  machine::Scenario2Config config;
  config.supervised = true;
  config.kill_primary_at = Millis(10);  // primary ingest dies mid-delivery
  config.fault_spec = "orb.invoke:error@0.01";  // acceptance-criteria noise
  config.fault_seed = 42;
  auto report = machine::RunScenario2(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Zero lost atoms and at least one breaker-driven SWITCH.
  EXPECT_EQ(report->lost_rows, 0u);
  EXPECT_EQ(report->stream.rows_delivered, config.rows);
  EXPECT_GE(report->breaker_switches, 1u);
  ASSERT_FALSE(report->trace_id.empty());

  // The breaker transition in the fault log and the SWITCH decision in
  // the decision log carry the same trace id — the join the Observatory
  // serves at /obs/faults and /obs/decisions.
  obs::TraceId trace = obs::TraceId::FromHex(report->trace_id);
  ASSERT_TRUE(trace.valid());
  bool breaker_event = false;
  for (const FaultEvent& e : FaultLog::Default().Snapshot()) {
    if (e.kind == FaultEventKind::kBreaker && e.trace_id == trace &&
        std::strstr(e.detail, "-> open") != nullptr) {
      breaker_event = true;
    }
  }
  EXPECT_TRUE(breaker_event);
  bool decision = false;
  for (const obs::DecisionRecord& d : obs::Tracer::Default().Decisions()) {
    if (d.constraint_id == 2 && d.trace_id == trace &&
        std::string(d.action).find("ingest.fallback") != std::string::npos) {
      decision = true;
    }
  }
  EXPECT_TRUE(decision);

  // And the same join through the faults *relation* (what /obs/query
  // exposes): σ(kind = "breaker" ∧ trace_id = <trace>) is non-empty.
  data::Relation rel = obs::ToRelation(fault::FaultsTable());
  auto trace_col = rel.schema().IndexOf("trace_id");
  auto kind_col = rel.schema().IndexOf("kind");
  ASSERT_TRUE(trace_col.ok() && kind_col.ok());
  size_t joined = 0;
  for (const data::Tuple& t : rel.rows()) {
    if (std::get<std::string>(t.values[*kind_col]) == "breaker" &&
        std::get<std::string>(t.values[*trace_col]) == report->trace_id) {
      ++joined;
    }
  }
  EXPECT_GE(joined, 1u);
  FaultLog::Default().Clear();
}

// ---------------------------------------------------------------------------
// Reconfigure probe rollback
// ---------------------------------------------------------------------------

/// A replacement whose post-activation probe fails `failures` times
/// before succeeding (transient), or always (permanent).
class ProbeFlaky : public component::Component {
 public:
  ProbeFlaky(std::string name, int failures, bool permanent)
      : Component(std::move(name), "probe-flaky"),
        failures_(failures),
        permanent_(permanent) {
    AddProvided("svc");
  }
  Status Probe() override {
    ++probes_;
    if (permanent_) return Status::Internal("probe: dead on arrival");
    if (failures_-- > 0) return Status::Unavailable("probe: warming up");
    return Status::OK();
  }
  int probes() const { return probes_; }

 private:
  int failures_;
  bool permanent_;
  int probes_ = 0;
};

class Stable : public component::Component {
 public:
  explicit Stable(std::string name)
      : Component(std::move(name), "stable") {
    AddProvided("svc");
  }
};

TEST(ReconfigureProbeTest, FailedProbeRollsBackTheSwap) {
  component::Registry reg;
  component::Reconfigurer rc(&reg);
  ASSERT_TRUE(reg.Add(std::make_shared<Stable>("svc")).ok());
  ASSERT_TRUE(reg.StartAll().ok());

  auto dead = std::make_shared<ProbeFlaky>("svc-v2", 0, /*permanent=*/true);
  component::ReconfigurationPlan plan;
  plan.Swap("svc", dead);
  Status s = rc.Execute(plan);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_NE(s.ToString().find("post-activation probe"), std::string::npos);
  // Rolled back: the registry still points at the old provider, not at
  // a dead interface.
  EXPECT_TRUE(reg.Contains("svc"));
  EXPECT_FALSE(reg.Contains("svc-v2"));
  EXPECT_EQ(rc.stats().rolled_back, 1u);
  auto old_component = reg.Get("svc");
  ASSERT_TRUE(old_component.ok());
  EXPECT_EQ((*old_component)->lifecycle(), component::Lifecycle::kActive);
}

TEST(ReconfigureProbeTest, TransientProbeFailureIsRetriedThenCommits) {
  component::Registry reg;
  component::Reconfigurer rc(&reg);
  ASSERT_TRUE(reg.Add(std::make_shared<Stable>("svc")).ok());
  ASSERT_TRUE(reg.StartAll().ok());

  // Fails IsRetryable()-ly twice — within the probe retry budget.
  auto warming = std::make_shared<ProbeFlaky>(
      "svc-v2", component::Reconfigurer::kProbeRetries, /*permanent=*/false);
  component::ReconfigurationPlan plan;
  plan.Swap("svc", warming);
  Status s = rc.Execute(plan);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(reg.Contains("svc"));
  EXPECT_TRUE(reg.Contains("svc-v2"));
  EXPECT_EQ(warming->probes(), component::Reconfigurer::kProbeRetries + 1);
}

// ---------------------------------------------------------------------------
// Flight recorder: the fault log survives the crash
// ---------------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(FaultFlightRecorderDeathTest, UnrecoveredCrashDumpsTheFaultLog) {
  const std::string path = "fault_test.check.flight.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        obs::FlightRecorderOptions o;
        o.path = path;
        o.install_signal_handlers = false;
        obs::InstallFlightRecorder(o);
        // A fault the supervision layer could NOT recover from: it is
        // on record, then the invariant check kills the process.
        fault::Record(FaultEventKind::kInjected, "test.point",
                      "unrecovered injected crash", Millis(3));
        DBM_CHECK(false) << "unrecovered fault";
      },
      "CHECK failed");
  std::string text = ReadWholeFile(path);
  ASSERT_FALSE(text.empty());
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* flight = doc->Find("flight");
  ASSERT_NE(flight, nullptr);
  const JsonValue* faults = flight->Find("faults");
  ASSERT_NE(faults, nullptr);
  ASSERT_TRUE(faults->IsArray());
  bool found = false;
  for (const JsonValue& e : faults->array) {
    const JsonValue* point = e.Find("point");
    if (point != nullptr && point->StringOr("") == "test.point") found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbm
