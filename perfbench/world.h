// The serve plane a workload's traffic crosses:
//
//   net::ClientSwarm → World (the RequestSink adapter) → patia::FrontDoor
//     → batched, supervised ORB dispatch → PatiaServer → atom body
//
// The adapter picks each request's op from the workload's seeded mix,
// rewrites the resource ("/db?op=scan_agg&p=2&id=17"), and stamps host
// time at Submit and at done. The world drives FrontDoor::Tick and
// PatiaServer::Tick from its own periodic loop events (the periods
// Start()/StartTicking() would use) so both are spans, and keeps ticking
// after FrontDoor::Stop() until the door has drained.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/event_loop.h"
#include "common/rng.h"
#include "net/loadgen.h"
#include "net/network.h"
#include "obs/blackbox/log.h"
#include "patia/frontdoor.h"
#include "patia/patia.h"
#include "query/pool.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

enum Op : uint8_t { kScanAgg, kJoinAgg, kLookup, kWrite, kRead, kPage };
inline constexpr size_t kOps = 6;
const char* OpName(Op op);

struct MixEntry {
  Op op;
  uint32_t weight;
};

/// The data plane behind the "/db" atom.
class Backend {
 public:
  virtual ~Backend() = default;
  /// Picks a request's parameter (query variant, key, ...) at Submit.
  virtual uint32_t PickParam(Op op, dbm::Rng* rng) = 0;
  /// Runs one request inside the atom body; returns the response body.
  virtual std::string Serve(Op op, uint32_t param, uint64_t request) = 0;
};

struct WorldOptions {
  /// The two-node static-page world of the flash crowd; otherwise one
  /// node serving the dynamic "/db" atom through `backend`.
  bool flashcrowd = false;
  uint64_t sessions = 4;
  dbm::SimTime think_mean = dbm::Millis(1);
  std::vector<MixEntry> mix;  // "/db" world only
  Backend* backend = nullptr;
  uint64_t seed = 1;
  dbm::query::WorkerPool* pool = nullptr;
  /// Flash crowd: where the black box writes its segments.
  std::string telemetry_dir;
};

/// What one measured phase saw: requests submitted from the phase's
/// start until the door stops, followed until it drains. Arrivals the
/// stopped door refuses are `closed`, not refusals.
struct PhaseResult {
  int64_t wall_ns = 0;
  uint64_t submitted = 0;  // reached the door while it admitted
  uint64_t admitted = 0;
  uint64_t served = 0;
  uint64_t unserved = 0;  // done fired with served=false
  uint64_t shed_rule = 0;
  uint64_t shed_overflow = 0;
  uint64_t backpressured = 0;
  uint64_t closed = 0;
  uint64_t batches = 0;
  uint64_t tick_errors = 0;
  // Served requests: host ns from Submit to done, per op, and simulated
  // us from issued_at to completed_at.
  std::array<LatencyHistogram, kOps> host_ns;
  LatencyHistogram sim_us;
  uint64_t swarm_issued = 0;
  uint64_t swarm_completed = 0;
  uint64_t swarm_shed = 0;
  uint64_t swarm_backpressured = 0;
};

class World : public dbm::net::RequestSink {
 public:
  World(WorldOptions options, SpanLog* spans);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Builds the network, Patia, the front door and (flash crowd) the
  /// installed black box.
  dbm::Status Build();

  /// Starts the swarm and runs `sim` of simulated time unmeasured.
  dbm::Status WarmUp(dbm::SimTime sim);

  /// Measures for `seconds` of host time, then stops the door and ticks
  /// until it drains. Call once.
  dbm::Result<PhaseResult> Run(double seconds);

  /// The adapter (RequestSink).
  dbm::Status Submit(uint64_t session, const std::string& client,
                     const std::string& resource, DoneFn done) override;

  dbm::obs::blackbox::TelemetryLog* telemetry() { return telemetry_.get(); }

 private:
  dbm::Status Start();  // swarm + ticks, once
  void ScheduleDoorTick();
  void ScheduleServerTick();
  std::string ServeAtom(const std::string& resource);

  WorldOptions options_;
  SpanLog* spans_;
  dbm::Rng rng_;
  std::vector<Op> deck_;  // the mix, one entry per unit of weight
  size_t deck_pos_ = 0;
  uint64_t next_id_ = 0;
  bool measuring_ = false;
  PhaseResult result_;

  // Declared before everything that schedules events on it, so it is
  // destroyed after them.
  dbm::EventLoop loop_;
  dbm::net::Network net_;
  dbm::adapt::MetricBus bus_;
  std::unique_ptr<dbm::obs::blackbox::TelemetryLog> telemetry_;
  std::unique_ptr<dbm::patia::PatiaServer> server_;
  std::unique_ptr<dbm::patia::FrontDoor> door_;
  std::unique_ptr<dbm::net::ClientSwarm> swarm_;
  std::vector<std::string> clients_;
  std::string resource_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
