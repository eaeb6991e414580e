#include "patia/patia.h"

#include <algorithm>

#include "fault/log.h"
#include "obs/blackbox/log.h"
#include "obs/health.h"

namespace dbm::patia {

PatiaServer::PatiaServer(net::Network* network, adapt::MetricBus* bus)
    : network_(network), bus_(bus), derived_(bus) {
  obs::Registry& reg = obs::Registry::Default();
  obs_requests_ = &reg.GetCounter("patia.requests");
  obs_migrations_ = &reg.GetCounter("patia.agent.migrations");
  obs_latency_us_ = &reg.GetHistogram("patia.request.latency_us");
  processor_util_ch_ = bus_->GetChannel("processor-util");
  adaptivity_ = std::make_shared<adapt::AdaptivityManager>("patia-am");
  state_ = std::make_shared<adapt::StateManager>("patia-state");
  session_ =
      std::make_shared<adapt::SessionManager>("patia-sm", bus_, &constraints_);
  session_->FindPort("adaptivity")->SetTarget(adaptivity_);
  session_->FindPort("state")->SetTarget(state_);

  // The catch-all handler implements SWITCH: migrate the subject atom's
  // service agent (processing state moves through the State Manager) so
  // subsequent requests are served elsewhere.
  adaptivity_->RegisterHandler(
      "", [this](const adapt::AdaptationRequest& req) -> Status {
        if (!req.decision.chosen.has_value()) {
          return Status::InvalidArgument("decision without a target");
        }
        auto atom_it = atoms_by_name_.find(req.subject);
        if (atom_it == atoms_by_name_.end()) {
          return Status::NotFound("no atom '" + req.subject + "'");
        }
        int atom_id = atom_it->second;
        const std::string target_node = req.decision.chosen->node();
        DBM_RETURN_NOT_OK(network_->GetDevice(target_node).status());
        auto agent_it = agents_.find(atom_id);
        if (agent_it == agents_.end()) {
          return Status::NotFound("no agent for atom " +
                                  std::to_string(atom_id));
        }
        ServiceAgent& agent = *agent_it->second;
        if (req.decision.migrate_state) {
          component::StateBlob blob;
          DBM_RETURN_NOT_OK(agent.Checkpoint(&blob));
          DBM_RETURN_NOT_OK(state_->Save(agent.name(), std::move(blob)));
        }
        agent.MigrateTo(target_node);
        obs_migrations_->Add(1);
        // The scorer's notion of "current" follows the agent.
        auto scorer_it = scorers_.find(atom_id);
        if (scorer_it != scorers_.end()) {
          scorer_it->second->set_current(*req.decision.chosen);
        }
        return Status::OK();
      });
}

Status PatiaServer::AddNode(const std::string& name, NodeOptions options) {
  DBM_RETURN_NOT_OK(network_->GetDevice(name).status());
  if (nodes_.count(name) > 0) {
    return Status::AlreadyExists("node '" + name + "' already added");
  }
  nodes_[name] = NodeState{options, 0, {}};
  // Monitor + gauge for this node's utilisation (Fig 1 pipeline).
  auto monitor = net::MakeLoadMonitor(network_, name);
  auto gauge = std::make_shared<adapt::Gauge>(
      name + ".util-gauge", adapt::GaugeKind::kEwma, bus_, /*alpha=*/0.5);
  gauge->FindPort("source")->SetTarget(monitor);
  gauges_.push_back(std::move(gauge));
  node_util_ch_[name] = bus_->GetChannel(name + ".processor-util");
  return Status::OK();
}

Status PatiaServer::RegisterAtom(Atom atom,
                                 const std::vector<std::string>& nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("atom needs at least one replica node");
  }
  if (atom.variants.empty()) {
    return Status::InvalidArgument("atom '" + atom.name +
                                   "' has no variants");
  }
  for (const std::string& n : nodes) {
    if (nodes_.count(n) == 0) {
      return Status::NotFound("replica node '" + n + "' not added");
    }
  }
  if (atoms_by_name_.count(atom.name) > 0) {
    return Status::AlreadyExists("atom '" + atom.name + "' already present");
  }
  int id = atom.id;
  std::string name = atom.name;
  atoms_by_name_[name] = id;
  replicas_[id] = nodes;
  agents_[id] = std::make_shared<ServiceAgent>("agent-" + name, id, nodes[0]);
  // Resolve the per-variant selection counters now so serving stays
  // string-free ("patia.atom.<name>.variant.<resource>").
  std::map<std::string, obs::Counter*>& counters = variant_counters_[id];
  for (const AtomVariant& v : atom.variants) {
    counters[v.resource] = &obs::Registry::Default().GetCounter(
        "patia.atom." + name + ".variant." + v.resource);
  }
  auto scorer = std::make_unique<net::NetworkScorer>(network_, nodes[0]);
  scorer->set_current(adapt::Target{{nodes[0], name}, {}});
  session_->SetScorer(name, scorer.get());
  scorers_[id] = std::move(scorer);
  atoms_[id] = std::move(atom);
  return Status::OK();
}

Status PatiaServer::AddConstraint(int constraint_id, int atom_id,
                                  std::string_view rule_text, int priority) {
  auto it = atoms_.find(atom_id);
  if (it == atoms_.end()) {
    return Status::NotFound("no atom " + std::to_string(atom_id));
  }
  return constraints_.Add(constraint_id, it->second.name, rule_text,
                          priority);
}

Status PatiaServer::RegisterDynamicAtom(Atom atom,
                                        const std::vector<std::string>& nodes,
                                        ContentFn content) {
  if (content == nullptr) {
    return Status::InvalidArgument("dynamic atom '" + atom.name +
                                   "' needs a content generator");
  }
  int id = atom.id;
  DBM_RETURN_NOT_OK(RegisterAtom(std::move(atom), nodes));
  dynamic_content_[id] = std::move(content);
  return Status::OK();
}

Result<const Atom*> PatiaServer::GetAtom(const std::string& name) const {
  // Dynamic endpoints carry per-request query suffixes
  // ("/obs/query?q=..."): the atom is the part before '?'.
  std::string base = name;
  size_t qpos = base.find('?');
  if (qpos != std::string::npos) base.resize(qpos);
  auto it = atoms_by_name_.find(base);
  if (it == atoms_by_name_.end()) {
    return Status::NotFound("no atom '" + base + "'");
  }
  return &atoms_.at(it->second);
}

Result<ServiceAgent*> PatiaServer::AgentFor(int atom_id) {
  auto it = agents_.find(atom_id);
  if (it == agents_.end()) {
    return Status::NotFound("no agent for atom " + std::to_string(atom_id));
  }
  return it->second.get();
}

double PatiaServer::NodeUtilisation(const std::string& node) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  return static_cast<double>(it->second.active) /
         std::max(1, it->second.options.service_slots);
}

void PatiaServer::UpdateLoad(const std::string& node) {
  auto device = network_->GetDevice(node);
  if (device.ok()) {
    (*device)->set_load(std::min(1.0, NodeUtilisation(node)));
  }
}

void PatiaServer::BeginServe(const std::string& node,
                             std::function<void()> work) {
  NodeState& ns = nodes_.at(node);
  if (ns.active >= ns.options.service_slots) {
    ns.queue.push_back(std::move(work));
    stats_.queued_peak = std::max(stats_.queued_peak,
                                  static_cast<uint64_t>(ns.queue.size()));
    return;
  }
  ++ns.active;
  UpdateLoad(node);
  work();
}

void PatiaServer::FinishServe(const std::string& node) {
  NodeState& ns = nodes_.at(node);
  if (!ns.queue.empty()) {
    // Hand the slot to the next queued request.
    auto work = std::move(ns.queue.front());
    ns.queue.pop_front();
    work();
    return;
  }
  ns.active = std::max(0, ns.active - 1);
  UpdateLoad(node);
}

Result<std::string> PatiaServer::ChooseNode(const Atom& atom,
                                            const std::string& client) {
  (void)client;
  // The agent's current node wins; a BEST Select rule (constraint 450)
  // can override it per request when present.
  auto decision = session_->Decide(atom.name);
  if (decision.ok() && decision->chosen.has_value() &&
      decision->kind == adapt::ActionKind::kBest) {
    const std::string node = decision->chosen->node();
    if (nodes_.count(node) > 0) return node;
  }
  DBM_ASSIGN_OR_RETURN(ServiceAgent * agent,
                       AgentFor(atoms_by_name_.at(atom.name)));
  return agent->node();
}

void PatiaServer::EnableDegradation(DegradationOptions options) {
  degradation_enabled_ = true;
  degradation_ = std::move(options);
  degradation_breaker_ch_ =
      degradation_.breaker_metric.empty()
          ? nullptr
          : bus_->GetChannel(degradation_.breaker_metric);
  obs_degraded_ = &obs::Registry::Default().GetCounter("patia.degraded");
}

bool PatiaServer::Degraded(const std::string& node) const {
  if (!degradation_enabled_) return false;
  // Breaker open (state gauge 2) anywhere in the serving path sheds.
  if (degradation_breaker_ch_ != nullptr &&
      degradation_breaker_ch_->value >= 2.0) {
    return true;
  }
  // A backed-up black-box flusher sheds too: telemetry durability is
  // part of serving, and the smallest variant buys the flusher air.
  if (degradation_.blackbox_backlog_degrade > 0) {
    obs::blackbox::TelemetryLog* log = obs::blackbox::TelemetryLog::Installed();
    if (log != nullptr &&
        log->BacklogFraction() >= degradation_.blackbox_backlog_degrade) {
      return true;
    }
  }
  return NodeUtilisation(node) >= degradation_.overload_utilisation;
}

Result<std::string> PatiaServer::ChooseVariant(const Atom& atom,
                                               const std::string& client,
                                               const std::string& node) {
  (void)client;
  (void)node;
  // Bandwidth-banded variant rules (constraint 595): any triggered rule
  // whose chosen target names a known variant selects it.
  for (const adapt::Constraint* c : constraints_.ForSubject(atom.name)) {
    if (!c->rule.trigger.has_value()) continue;
    auto scorer_it = scorers_.find(atom.id);
    const adapt::TargetScorer* scorer =
        scorer_it != scorers_.end()
            ? static_cast<const adapt::TargetScorer*>(scorer_it->second.get())
            : nullptr;
    static const adapt::TargetScorer kNullScorer;
    auto d = adapt::Evaluate(c->rule, *bus_,
                             scorer != nullptr ? *scorer : kNullScorer);
    if (!d.ok() || !d->fired || !d->chosen.has_value()) continue;
    if (d->kind == adapt::ActionKind::kSwitch) continue;  // handled by Tick
    std::string resource = d->chosen->resource();
    if (atom.FindVariant(resource) != nullptr) return resource;
  }
  return atom.variants.front().resource;
}

Status PatiaServer::Request(
    const std::string& client, const std::string& atom_name,
    std::function<void(const ServedRequest&)> on_done) {
  DBM_ASSIGN_OR_RETURN(const Atom* atom, GetAtom(atom_name));
  DBM_RETURN_NOT_OK(network_->GetDevice(client).status());
  DBM_ASSIGN_OR_RETURN(std::string node, ChooseNode(*atom, client));
  DBM_ASSIGN_OR_RETURN(std::string resource,
                       ChooseVariant(*atom, client, node));
  const AtomVariant* variant = atom->FindVariant(resource);
  // Load shedding: under an open breaker or node overload, the smallest
  // variant goes out instead of a refusal — degraded beats down.
  if (Degraded(node) && atom->variants.size() > 1 &&
      dynamic_content_.count(atom->id) == 0) {
    const AtomVariant* smallest = variant;
    for (const AtomVariant& v : atom->variants) {
      if (smallest == nullptr || v.bytes < smallest->bytes) smallest = &v;
    }
    if (smallest != variant) {
      variant = smallest;
      resource = smallest->resource;
      obs_degraded_->Add(1);
      fault::Record(fault::FaultEventKind::kDegraded, "patia." + node,
                    "shed load: served '" + resource + "' for atom '" +
                        atom->name + "'",
                    network_->loop()->Now());
    }
  }
  obs_requests_->Add(1);
  auto atom_counters = variant_counters_.find(atom->id);
  if (atom_counters != variant_counters_.end()) {
    auto vc = atom_counters->second.find(resource);
    if (vc != atom_counters->second.end()) vc->second->Add(1);
  }

  SimTime issued = network_->loop()->Now();
  int atom_id = atom->id;
  size_t bytes = variant->bytes;

  // Dynamic atoms generate their body at request time; the body's size
  // (not the variant's nominal byte count) prices the transfer. The full
  // request string — "?query" suffix included — reaches the generator.
  std::shared_ptr<std::string> body;
  auto dyn = dynamic_content_.find(atom_id);
  if (dyn != dynamic_content_.end()) {
    body = std::make_shared<std::string>(dyn->second(atom_name, issued));
    bytes = body->size();
    resource = atom_name;
  }
  SimTime service_time = nodes_.at(node).options.service_time;

  BeginServe(node, [this, client, node, atom_id, resource, bytes, issued,
                    service_time, body, on_done = std::move(on_done)] {
    // CPU service time on the node, then the network transfer.
    network_->loop()->ScheduleAfter(service_time, [this, client, node,
                                                   atom_id, resource, bytes,
                                                   issued, body, on_done] {
      Status s = network_->Transfer(
          node, client, bytes,
          [this, client, node, atom_id, resource, issued, body,
           on_done](SimTime done_at) {
            ServedRequest served;
            served.atom_id = atom_id;
            served.client = client;
            served.served_by = node;
            served.resource = resource;
            served.issued_at = issued;
            served.completed_at = done_at;
            ++stats_.completed;
            ++stats_.served_by_node[node];
            obs_latency_us_->Record(static_cast<uint64_t>(served.Latency()));
            stats_.log.Push(served);
            auto agent = AgentFor(atom_id);
            if (agent.ok()) (*agent)->RecordServe();
            FinishServe(node);
            if (on_done) {
              // The body rides only on the callback's copy, never the log.
              if (body != nullptr) served.body = std::move(*body);
              on_done(served);
            }
          });
      if (!s.ok()) {
        // No route: release the slot; the request is lost.
        FinishServe(node);
      }
    });
  });
  return Status::OK();
}

Status PatiaServer::Tick() {
  SimTime now = network_->loop()->Now();
  for (auto& gauge : gauges_) {
    DBM_RETURN_NOT_OK(gauge->Sample(now));
  }
  // Derived trend gauges ("derived.<metric>.<stat>") recompute before the
  // constraint pass so Table-2 rules can trigger on them this tick.
  derived_.Tick(now);
  // The Table 2 metric name is "processor-util"; republish each serving
  // agent's node utilisation under that name and judge only that atom's
  // constraints against it, so one agent's node never trips another
  // atom's rule. Channels were resolved at AddNode — this path does not
  // allocate.
  for (const auto& [atom_id, agent] : agents_) {
    auto node_ch = node_util_ch_.find(agent->node());
    double util = node_ch != node_util_ch_.end() ? node_ch->second->value : 0;
    bus_->Publish(processor_util_ch_, util, now);
    DBM_RETURN_NOT_OK(
        session_->CheckConstraints(now, atoms_.at(atom_id).name).status());
  }
  // The republished metric bypasses adapt::Gauge, so feed the watchdog
  // directly (per-node gauges record their own samples).
  obs::LoopHealth::Default().Get("processor-util").Sample(now);
  return Status::OK();
}

void PatiaServer::StartTicking(SimTime interval) {
  if (ticking_) return;
  ticking_ = true;
  // Declare the tick cadence to the watchdog: every per-node load gauge
  // and the republished Table-2 metric should now refresh each interval.
  auto& health = obs::LoopHealth::Default();
  health.Expect("processor-util", interval);
  for (const auto& [node, state] : nodes_) {
    (void)state;
    health.Expect(node + ".processor-util", interval);
  }
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [this, interval, weak] {
    auto self = weak.lock();
    if (self == nullptr) return;
    (void)Tick();
    network_->loop()->ScheduleAfter(interval, [self] { (*self)(); });
  };
  network_->loop()->ScheduleAfter(interval, [tick] { (*tick)(); });
}

Status FlashCrowd::Run(const std::string& client,
                       const std::string& atom_name) {
  DBM_RETURN_NOT_OK(server_->GetAtom(atom_name).status());
  rng_ = std::make_shared<Rng>(options_.seed);
  ScheduleNext(0, client, atom_name, rng_.get());
  return Status::OK();
}

void FlashCrowd::ScheduleNext(SimTime at, const std::string& client,
                              const std::string& atom_name, Rng* rng) {
  if (at > options_.horizon) return;
  double rate = options_.base_rate_per_s;
  if (at >= options_.flash_start && at < options_.flash_end) {
    rate *= options_.flash_multiplier;
  }
  SimTime gap = Seconds(rng->Exponential(rate));
  if (gap < 1) gap = 1;
  SimTime next = at + gap;
  network_->loop()->ScheduleAt(next, [this, next, client, atom_name, rng] {
    ++issued_;
    (void)server_->Request(client, atom_name);
    ScheduleNext(next, client, atom_name, rng);
  });
}

}  // namespace dbm::patia
