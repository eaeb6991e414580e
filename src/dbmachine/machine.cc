#include "dbmachine/machine.h"

#include <set>

namespace dbm::machine {

DatabaseMachine::DatabaseMachine(net::Network* network) : network_(network) {
  adaptivity_ = std::make_shared<adapt::AdaptivityManager>("machine-am");
  state_ = std::make_shared<adapt::StateManager>("machine-state");
  session_ = std::make_shared<adapt::SessionManager>("machine-sm", &bus_,
                                                     &machine_constraints_);
  session_->FindPort("adaptivity")->SetTarget(adaptivity_);
  session_->FindPort("state")->SetTarget(state_);
  (void)registry_.Add(adaptivity_);
  (void)registry_.Add(state_);
  (void)registry_.Add(session_);
}

Status DatabaseMachine::InstrumentDevice(const std::string& device) {
  DBM_RETURN_NOT_OK(network_->GetDevice(device).status());
  auto load_mon = net::MakeLoadMonitor(network_, device);
  auto load_gauge = std::make_shared<adapt::Gauge>(
      device + ".load-gauge", adapt::GaugeKind::kEwma, &bus_, 0.5);
  load_gauge->FindPort("source")->SetTarget(load_mon);
  gauges_.push_back(load_gauge);

  auto batt_mon = net::MakeBatteryMonitor(network_, device);
  auto batt_gauge = std::make_shared<adapt::Gauge>(
      device + ".battery-gauge", adapt::GaugeKind::kLast, &bus_);
  batt_gauge->FindPort("source")->SetTarget(batt_mon);
  gauges_.push_back(batt_gauge);
  return Status::OK();
}

Status DatabaseMachine::InstrumentLink(const std::string& a,
                                       const std::string& b) {
  DBM_RETURN_NOT_OK(network_->GetLink(a, b).status());
  auto mon = net::MakeBandwidthMonitor(network_, a, b);
  auto gauge = std::make_shared<adapt::Gauge>(
      a + "-" + b + ".bw-gauge", adapt::GaugeKind::kLast, &bus_);
  gauge->FindPort("source")->SetTarget(mon);
  gauges_.push_back(gauge);
  return Status::OK();
}

Status DatabaseMachine::SampleAll() {
  SimTime now = network_->loop()->Now();
  for (auto& gauge : gauges_) {
    DBM_RETURN_NOT_OK(gauge->Sample(now));
  }
  return Status::OK();
}

Status DatabaseMachine::AttachData(std::shared_ptr<data::DataComponent> dc,
                                   const std::string& vantage) {
  DBM_RETURN_NOT_OK(network_->GetDevice(vantage).status());
  const std::string& name = dc->name();
  DBM_RETURN_NOT_OK(registry_.Add(dc));
  data_[name] = dc;
  auto scorer = std::make_unique<net::NetworkScorer>(network_, vantage);
  session_->SetScorer(name, scorer.get());
  scorers_[name] = std::move(scorer);
  return Status::OK();
}

Result<const data::MaterializedVersion*> DatabaseMachine::ResolveVersion(
    const data::DataComponent& dc, const std::string& node) const {
  // Prefer the freshest full-fidelity version at the node; fall back to
  // anything held there.
  const data::MaterializedVersion* best = nullptr;
  for (const data::VersionDescriptor* d : dc.versions().At(node)) {
    auto v = dc.versions().Get(d->id);
    if (!v.ok()) continue;
    if (best == nullptr ||
        (*v)->descriptor.quality > best->descriptor.quality ||
        ((*v)->descriptor.quality == best->descriptor.quality &&
         (*v)->descriptor.as_of > best->descriptor.as_of)) {
      best = *v;
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no version of '" + dc.name() + "' at node '" +
                            node + "'");
  }
  return best;
}

Status DatabaseMachine::QueryData(
    const std::string& subject, const std::string& client,
    std::function<void(const DataQueryResult&)> on_done) {
  auto it = data_.find(subject);
  if (it == data_.end()) {
    return Status::NotFound("no data component '" + subject + "'");
  }
  const data::DataComponent& dc = *it->second;

  // Evaluate the datum's own highest-priority Select rule against the
  // live network (the rules travel WITH the data component, Fig 2).
  std::string node = dc.location();
  for (const adapt::Constraint* c : dc.rules().ForSubject(subject)) {
    if (c->rule.trigger.has_value()) continue;
    auto scorer_it = scorers_.find(subject);
    if (scorer_it == scorers_.end()) break;
    DBM_ASSIGN_OR_RETURN(adapt::Decision d,
                         Evaluate(c->rule, bus_, *scorer_it->second));
    if (d.chosen.has_value()) node = d.chosen->node();
    break;
  }
  return QueryDataFrom(subject, node, client, std::move(on_done));
}

Status DatabaseMachine::QueryDataFrom(
    const std::string& subject, const std::string& node,
    const std::string& client,
    std::function<void(const DataQueryResult&)> on_done) {
  auto it = data_.find(subject);
  if (it == data_.end()) {
    return Status::NotFound("no data component '" + subject + "'");
  }
  DBM_ASSIGN_OR_RETURN(const data::MaterializedVersion* version,
                       ResolveVersion(*it->second, node));
  DBM_RETURN_NOT_OK(network_->GetDevice(client).status());

  DataQueryResult result;
  result.version_id = version->descriptor.id;
  result.served_from = node;
  result.kind = version->descriptor.kind;
  result.bytes_transferred = version->payload.size();
  result.issued_at = network_->loop()->Now();

  if (node == client) {
    // Local version: no transfer, only a (small) local access cost.
    network_->loop()->ScheduleAfter(
        Micros(50), [result, on_done = std::move(on_done)]() mutable {
          result.completed_at = result.issued_at + Micros(50);
          if (on_done) on_done(result);
        });
    return Status::OK();
  }
  return network_->Transfer(
      node, client, version->payload.size(),
      [result, on_done = std::move(on_done)](SimTime done) mutable {
        result.completed_at = done;
        if (on_done) on_done(result);
      });
}

Status DatabaseMachine::SwitchConfiguration(
    const adl::Document& doc, const std::string& from_config,
    const std::string& to_config, const adl::ComponentFactory& factory) {
  auto from = doc.configurations.find(from_config);
  auto to = doc.configurations.find(to_config);
  if (from == doc.configurations.end() || to == doc.configurations.end()) {
    return Status::NotFound("configuration '" + from_config + "' or '" +
                            to_config + "' not in document");
  }
  DBM_ASSIGN_OR_RETURN(adl::ConfigurationDiff diff,
                       adl::Diff(doc, from->second, to->second));
  DBM_ASSIGN_OR_RETURN(component::ReconfigurationPlan plan,
                       adl::LowerDiff(diff, factory));
  return reconfigurer_.Execute(plan);
}

Status DatabaseMachine::CheckConforms(const adl::Document& doc,
                                      const std::string& config_name) const {
  auto cfg = doc.configurations.find(config_name);
  if (cfg == doc.configurations.end()) {
    return Status::NotFound("no configuration '" + config_name + "'");
  }
  // Conformance only inspects the instances the description names; the
  // machine's own infrastructure components are filtered out.
  component::ArchitectureSnapshot snap =
      const_cast<component::Registry&>(registry_).Snapshot();
  component::ArchitectureSnapshot filtered;
  std::set<std::string> described;
  for (const adl::InstanceDecl& inst : cfg->second.instances) {
    described.insert(inst.name);
  }
  for (const std::string& name : snap.components) {
    if (described.count(name) > 0) {
      filtered.components.push_back(name);
      auto prov = snap.provided.find(name);
      if (prov != snap.provided.end()) {
        filtered.provided[name] = prov->second;
      }
    }
  }
  for (const component::BindingEdge& e : snap.bindings) {
    if (described.count(e.from_component) > 0 &&
        described.count(e.to_component) > 0) {
      filtered.bindings.push_back(e);
    }
  }
  return adl::Conforms(doc, cfg->second, filtered);
}

}  // namespace dbm::machine
