#include "world.h"

#include "obs/timeseries.h"
#include "stats.h"

namespace perfbench {

using namespace dbm;

namespace {

constexpr SimTime kDoorInterval = Millis(1);  // FrontDoorOptions default
constexpr SimTime kServerInterval = Millis(50);
constexpr SimTime kSlice = Millis(1);         // host-deadline poll period
constexpr int64_t kDrainLimitNs = 60'000'000'000;
const char kDbAtom[] = "/db";
const char kPageAtom[] = "Page1.html";

/// The value of `key` in "...?op=x&p=3&id=9", or empty.
std::string_view QueryArg(std::string_view resource, std::string_view key) {
  size_t pos = resource.find('?');
  while (pos != std::string_view::npos) {
    const size_t start = pos + 1;
    const size_t end = resource.find('&', start);
    std::string_view kv = resource.substr(start, end - start);
    if (kv.size() > key.size() && kv.substr(0, key.size()) == key &&
        kv[key.size()] == '=') {
      return kv.substr(key.size() + 1);
    }
    pos = end;
  }
  return {};
}

uint64_t ParseU64(std::string_view s) {
  uint64_t v = 0;
  for (char c : s) v = v * 10 + static_cast<uint64_t>(c - '0');
  return v;
}

Op ParseOp(std::string_view name) {
  for (size_t i = 0; i < kOps; ++i) {
    if (name == OpName(static_cast<Op>(i))) return static_cast<Op>(i);
  }
  return kPage;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case kScanAgg: return "scan_agg";
    case kJoinAgg: return "join_agg";
    case kLookup: return "lookup";
    case kWrite: return "write";
    case kRead: return "read";
    case kPage: return "page";
  }
  return "?";
}

World::World(WorldOptions options, SpanLog* spans)
    : options_(std::move(options)),
      spans_(spans),
      rng_(options_.seed * 0x9E3779B97F4A7C15ULL + 11),
      net_(&loop_) {
  for (const MixEntry& m : options_.mix) deck_.insert(deck_.end(), m.weight, m.op);
  deck_pos_ = deck_.size();
}

Status World::Build() {
  // Fresh simulated clock: stale series from an earlier world would sit
  // "in the future" of this one.
  obs::TimeSeriesStore::Default().ResetAll();
  server_ = std::make_unique<patia::PatiaServer>(&net_, &bus_);
  patia::FrontDoorOptions fd;
  fd.dispatch_interval = kDoorInterval;
  fd.admission_dop = options_.pool->size();
  if (options_.flashcrowd) {
    // The two-node world of bench_flashcrowd: fat wired links so the
    // server slots, not the wire, bind.
    net_.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
    net_.AddDevice({"node2", net::DeviceClass::kServer, 1.0, -1, 10, 0});
    for (int i = 0; i < 4; ++i) {
      const std::string edge = "edge" + std::to_string(i + 1);
      net_.AddDevice({edge, net::DeviceClass::kLaptop, 0.5, -1, 5.0 + i, 5});
      net_.Connect("node1", edge, {500000, Millis(1), "wired"});
      net_.Connect("node2", edge, {500000, Millis(1), "wired"});
      clients_.push_back(edge);
    }
    DBM_RETURN_NOT_OK(server_->AddNode("node1", {8, Millis(2)}));
    DBM_RETURN_NOT_OK(server_->AddNode("node2", {8, Millis(2)}));
    patia::Atom page;
    page.id = 7;
    page.name = kPageAtom;
    page.type = "html";
    page.variants = {{kPageAtom, 24000}, {"Page1.small.html", 2400}};
    DBM_RETURN_NOT_OK(server_->RegisterAtom(page, {"node1", "node2"}));
    DBM_RETURN_NOT_OK(server_->AddConstraint(
        450, 7, "Select BEST(node1.Page1.html, node2.Page1.html)"));
    resource_ = kPageAtom;
    fd.queue_capacity = 256;
    fd.session_inflight_limit = 4;
    fd.batch_max = 32;
    fd.service_credit = 48;

    // The black box with its default fsync policy; backlog degradation
    // stays off so request outcomes remain a pure function of the seed.
    obs::blackbox::TelemetryLogOptions topt;
    topt.dir = options_.telemetry_dir;
    DBM_ASSIGN_OR_RETURN(telemetry_, obs::blackbox::TelemetryLog::Open(topt));
    telemetry_->Install();
  } else {
    net_.AddDevice({"db", net::DeviceClass::kServer, 1.0, -1, 0, 0});
    for (int i = 0; i < 4; ++i) {
      const std::string client = "client" + std::to_string(i + 1);
      net_.AddDevice({client, net::DeviceClass::kLaptop, 0.5, -1, 5.0 + i, 5});
      net_.Connect("db", client, {500000, Millis(1), "wired"});
      clients_.push_back(client);
    }
    DBM_RETURN_NOT_OK(server_->AddNode("db", {4, Millis(2)}));
    patia::Atom db;
    db.id = 1;
    db.name = kDbAtom;
    db.type = "text";
    db.variants = {{kDbAtom, 0}};
    DBM_RETURN_NOT_OK(server_->RegisterDynamicAtom(
        db, {"db"}, [this](const std::string& resource, SimTime) {
          return ServeAtom(resource);
        }));
    resource_ = kDbAtom;
  }

  door_ = std::make_unique<patia::FrontDoor>(server_.get(), &net_, &bus_, fd,
                                             options_.pool);
  if (options_.flashcrowd) {
    // Table-2 shedding over the admission-depth trend, as in
    // bench_flashcrowd.
    DBM_RETURN_NOT_OK(door_->AddShedRule(
        900,
        "If derived.admission.depth.mean > 96 and "
        "admission.shed_level < 50 then SWITCH(shed.0, shed.50)"));
    DBM_RETURN_NOT_OK(door_->AddShedRule(
        901,
        "If derived.admission.depth.mean > 192 and "
        "admission.shed_level < 80 then SWITCH(shed.50, shed.80)"));
    DBM_RETURN_NOT_OK(door_->AddShedRule(
        902,
        "If derived.admission.depth.mean < 16 and "
        "admission.shed_level > 0 then SWITCH(shed.50, shed.0)",
        /*priority=*/1));
    server_->EnableDegradation({"frontdoor.breaker", 1.5, 0.0});
  }
  return Status::OK();
}

std::string World::ServeAtom(const std::string& resource) {
  const uint64_t id = ParseU64(QueryArg(resource, "id"));
  const Op op = ParseOp(QueryArg(resource, "op"));
  SpanLog::Scope span(spans_, Layer::kAtom, id, op);
  return options_.backend->Serve(
      op, static_cast<uint32_t>(ParseU64(QueryArg(resource, "p"))), id);
}

Status World::Submit(uint64_t session, const std::string& client,
                     const std::string& resource, DoneFn done) {
  Op op = kPage;
  uint32_t param = 0;
  std::string target = resource;
  if (!options_.flashcrowd) {
    // Ops come from a shuffled deck holding each op `weight` times, so
    // every run sees the mix's exact proportions in a seeded order.
    if (deck_pos_ == deck_.size()) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
      }
      deck_pos_ = 0;
    }
    op = deck_[deck_pos_++];
    param = options_.backend->PickParam(op, &rng_);
    target = resource + "?op=" + OpName(op) +
             "&p=" + std::to_string(param) +
             "&id=" + std::to_string(next_id_ + 1);
  }
  const uint64_t id = ++next_id_;
  // Only requests submitted while measuring and admitting count; later
  // arrivals are refused by the stopped door and counted as closed.
  const bool counted = measuring_ && door_->accepting();
  if (measuring_ && !door_->accepting()) ++result_.closed;
  const int64_t submit_ns = NowNs();
  Status s;
  {
    SpanLog::Scope span(spans_, Layer::kSubmit, id, op);
    s = door_->Submit(
        session, client, target,
        [this, op, counted, submit_ns,
         done = std::move(done)](const Completion& c) {
          if (counted && c.served) {
            ++result_.served;
            result_.host_ns[op].Add(
                static_cast<uint64_t>(NowNs() - submit_ns));
            result_.sim_us.Add(
                static_cast<uint64_t>(c.completed_at - c.issued_at));
          } else if (counted) {
            ++result_.unserved;
          }
          done(c);
        });
  }
  return s;
}

void World::ScheduleDoorTick() {
  loop_.ScheduleAfter(kDoorInterval, [this] {
    {
      SpanLog::Scope span(spans_, Layer::kDoorTick);
      if (!door_->Tick().ok()) ++result_.tick_errors;
    }
    if (!door_->Drained()) ScheduleDoorTick();
  });
}

void World::ScheduleServerTick() {
  loop_.ScheduleAfter(kServerInterval, [this] {
    {
      SpanLog::Scope span(spans_, Layer::kServerTick);
      if (!server_->Tick().ok()) ++result_.tick_errors;
    }
    if (!door_->Drained()) ScheduleServerTick();
  });
}

Status World::Start() {
  if (swarm_ != nullptr) return Status::OK();
  net::ClientSwarm::Options sw;
  sw.sessions = options_.sessions;
  sw.think_mean = options_.think_mean;
  sw.ramp = options_.flashcrowd ? Seconds(1) : Millis(1);
  sw.horizon = Seconds(1'000'000);  // the host-time deadline ends the phase
  sw.backoff = Millis(25);
  sw.seed = options_.seed * 31 + 7;
  swarm_ = std::make_unique<net::ClientSwarm>(&loop_, this, &bus_, sw);
  ScheduleDoorTick();
  ScheduleServerTick();
  return swarm_->Run(clients_, resource_);
}

Status World::WarmUp(SimTime sim) {
  DBM_RETURN_NOT_OK(Start());
  loop_.RunUntil(loop_.Now() + sim);
  return result_.tick_errors == 0 ? Status::OK()
                                  : Status::Internal("tick failed in warm-up");
}

Result<PhaseResult> World::Run(double seconds) {
  DBM_RETURN_NOT_OK(Start());
  const patia::FrontDoor::Stats before = door_->stats();
  measuring_ = true;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  bool stopped = false;
  while (!(stopped && door_->Drained())) {
    if (loop_.empty()) return Status::Internal("event loop ran dry");
    {
      // The root of every span the slice opens; its self time is the
      // event loop, the net simulation, the swarm and the adapter.
      SpanLog::Scope span(spans_, Layer::kLoop);
      loop_.RunUntil(loop_.Now() + kSlice);
    }
    const int64_t now = NowNs();
    if (!stopped && now >= deadline) {
      door_->Stop();
      stopped = true;
    }
    if (now > deadline + kDrainLimitNs) {
      return Status::DeadlineExceeded("front door did not drain");
    }
  }
  result_.wall_ns = NowNs() - start;
  measuring_ = false;

  const patia::FrontDoor::Stats& ds = door_->stats();
  result_.submitted = (ds.submitted - before.submitted) -
                      (ds.shed_stopped - before.shed_stopped);
  result_.admitted = ds.admitted - before.admitted;
  result_.shed_rule = ds.shed_rule - before.shed_rule;
  result_.shed_overflow = ds.shed_overflow - before.shed_overflow;
  result_.backpressured = ds.backpressured - before.backpressured;
  result_.batches = ds.batches - before.batches;
  result_.swarm_issued = swarm_->issued();
  result_.swarm_completed = swarm_->completed();
  result_.swarm_shed = swarm_->shed();
  result_.swarm_backpressured = swarm_->backpressured();
  return std::move(result_);
}

}  // namespace perfbench
