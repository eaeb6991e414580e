// The Database Machine: the paper's contribution, assembled.
//
// "There is no DBMS or OS in this architecture, just components and
// hardware and some 'intelligence'" (§1). A DatabaseMachine instance
// wires together:
//   * the component registry + transactional reconfigurer (src/component)
//   * the Fig 1 adaptation pipeline — monitors → gauges → metric bus →
//     session manager → adaptivity manager → state manager (src/adapt)
//   * data components with metadata, rules and versions (src/data)
//   * the ubiquitous environment: devices and links (src/net)
// and exposes the operations the paper's scenarios exercise: placing
// queries against the BEST/NEAREST version of a datum, reconfiguring the
// architecture from Darwin descriptions, and re-optimising queries
// mid-flight.

#ifndef DBM_DBMACHINE_MACHINE_H_
#define DBM_DBMACHINE_MACHINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapt/session.h"
#include "adl/architecture.h"
#include "component/reconfigure.h"
#include "component/registry.h"
#include "data/data_component.h"
#include "net/network.h"

namespace dbm::machine {

/// The outcome of a data query placed through the machine (scenario 1).
struct DataQueryResult {
  std::string version_id;
  std::string served_from;      // node holding the chosen version
  data::VersionKind kind = data::VersionKind::kPrimary;
  size_t bytes_transferred = 0;
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  SimTime Latency() const { return completed_at - issued_at; }
};

class DatabaseMachine {
 public:
  explicit DatabaseMachine(net::Network* network);

  net::Network& network() { return *network_; }
  component::Registry& registry() { return registry_; }
  component::Reconfigurer& reconfigurer() { return reconfigurer_; }
  adapt::MetricBus& bus() { return bus_; }
  adapt::SessionManager& session() { return *session_; }
  adapt::AdaptivityManager& adaptivity() { return *adaptivity_; }
  adapt::StateManager& state_manager() { return *state_; }

  /// Registers a device's load/battery monitors and (EWMA) gauges.
  Status InstrumentDevice(const std::string& device);
  /// Registers a link bandwidth monitor + gauge under metric "bandwidth".
  Status InstrumentLink(const std::string& a, const std::string& b);
  /// Samples every gauge and publishes to the bus.
  Status SampleAll();

  /// Attaches a data component (it joins the registry) and registers a
  /// per-subject scorer so its BEST/NEAREST rules are evaluated against
  /// live device state. `vantage` is the device distances are measured
  /// from (the querying device).
  Status AttachData(std::shared_ptr<data::DataComponent> dc,
                    const std::string& vantage);

  /// Scenario 1, one query: evaluates the datum's highest-priority Select
  /// rule, resolves the chosen node's version of the datum, transfers it
  /// to `client` and completes with the result. Falls back to the
  /// component's home location when no rule is attached.
  Status QueryData(const std::string& subject, const std::string& client,
                   std::function<void(const DataQueryResult&)> on_done);

  /// Like QueryData but pinned to a fixed node (the static baseline).
  Status QueryDataFrom(const std::string& subject, const std::string& node,
                       const std::string& client,
                       std::function<void(const DataQueryResult&)> on_done);

  /// Applies a Darwin configuration switch (Fig 5): diffs `from`→`to` in
  /// `doc`, lowers onto a transactional plan with `factory`, executes it.
  Status SwitchConfiguration(const adl::Document& doc,
                             const std::string& from_config,
                             const std::string& to_config,
                             const adl::ComponentFactory& factory);

  /// Structural conformance check against a described configuration.
  Status CheckConforms(const adl::Document& doc,
                       const std::string& config_name) const;

 private:
  Result<const data::MaterializedVersion*> ResolveVersion(
      const data::DataComponent& dc, const std::string& node) const;

  net::Network* network_;
  component::Registry registry_;
  component::Reconfigurer reconfigurer_{&registry_};
  adapt::MetricBus bus_;
  adapt::ConstraintTable machine_constraints_;
  std::shared_ptr<adapt::AdaptivityManager> adaptivity_;
  std::shared_ptr<adapt::StateManager> state_;
  std::shared_ptr<adapt::SessionManager> session_;
  std::vector<std::shared_ptr<adapt::Gauge>> gauges_;
  std::map<std::string, std::shared_ptr<data::DataComponent>> data_;
  std::map<std::string, std::unique_ptr<net::NetworkScorer>> scorers_;
};

}  // namespace dbm::machine

#endif  // DBM_DBMACHINE_MACHINE_H_
