// Session manager, adaptivity manager and state manager (right half of
// Fig 1).
//
// The session manager "is fed information from monitors or gauges ...
// constantly checks constraints and, if broken, consults the switching
// rules to decide how best to overcome the problem", then hands the
// alternative over to the adaptivity manager, which "carries out the
// unbinding and rebinding of components" under transactional properties.
// The state manager holds checkpointed processing/data state so a SWITCH
// can resume consistently (scenario 3 and the Patia flash-crowd case).

#ifndef DBM_ADAPT_SESSION_H_
#define DBM_ADAPT_SESSION_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/metrics.h"
#include "adapt/rules.h"
#include "common/sim_clock.h"
#include "component/component.h"
#include "component/reconfigure.h"

namespace dbm::adapt {

/// One constraint row, exactly as in Table 2: id, subject (atom / data
/// component), rule, and a priority ("the constraint rules themselves can
/// be prioritised", §4).
struct Constraint {
  int id = 0;
  std::string subject;
  Rule rule;
  int priority = 0;  // lower value = evaluated first
};

/// The constraint store attached to data components / atoms.
class ConstraintTable {
 public:
  /// Adds a constraint, parsing `rule_text` in the Table 2 notation.
  Status Add(int id, const std::string& subject, std::string_view rule_text,
             int priority = 0);
  Status Add(Constraint constraint);
  Status Remove(int id);

  /// Constraints for one subject, by priority then id.
  std::vector<const Constraint*> ForSubject(const std::string& subject) const;
  /// All constraints, by priority then id.
  std::vector<const Constraint*> All() const;
  const Constraint* Find(int id) const;
  size_t size() const { return rows_.size(); }

 private:
  std::map<int, Constraint> rows_;
};

/// An adaptation the session manager asks for.
struct AdaptationRequest {
  int constraint_id = 0;
  std::string subject;
  Decision decision;
  SimTime at = 0;
};

/// The enactment record (for experiment logging).
struct AdaptationEvent {
  AdaptationRequest request;
  Status outcome;
};

/// State manager: holds checkpointed state between unbind and rebind.
class StateManager : public component::Component {
 public:
  explicit StateManager(std::string name = "state-manager")
      : Component(std::move(name), "state-manager") {}

  Status Save(const std::string& key, component::StateBlob blob) {
    blobs_[key] = std::move(blob);
    return Status::OK();
  }
  Result<component::StateBlob> Load(const std::string& key) const {
    auto it = blobs_.find(key);
    if (it == blobs_.end()) {
      return Status::NotFound("no saved state for '" + key + "'");
    }
    return it->second;
  }
  Status Drop(const std::string& key) {
    return blobs_.erase(key) > 0
               ? Status::OK()
               : Status::NotFound("no saved state for '" + key + "'");
  }
  size_t size() const { return blobs_.size(); }

 private:
  std::map<std::string, component::StateBlob> blobs_;
};

/// Enacts decisions. The hosting layer registers a handler per subject
/// (or the catch-all ""): given the request, the handler performs the
/// domain action — rebinding a version port, migrating a service agent,
/// amending a query plan — typically by executing a ReconfigurationPlan.
class AdaptivityManager : public component::Component {
 public:
  using Handler = std::function<Status(const AdaptationRequest&)>;

  explicit AdaptivityManager(std::string name = "adaptivity-manager")
      : Component(std::move(name), "adaptivity-manager") {
    obs::Registry& reg = obs::Registry::Default();
    obs_enacted_ = &reg.GetCounter("adapt.adaptivity.switchovers");
    obs_failed_ = &reg.GetCounter("adapt.adaptivity.failed");
  }

  void RegisterHandler(const std::string& subject, Handler handler) {
    handlers_[subject] = std::move(handler);
  }

  /// Applies the request via the most specific registered handler.
  Status Enact(const AdaptationRequest& request);

  const std::vector<AdaptationEvent>& log() const { return log_; }
  uint64_t enacted() const { return enacted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Handler> handlers_;
  std::vector<AdaptationEvent> log_;
  uint64_t enacted_ = 0;
  uint64_t failed_ = 0;
  obs::Counter* obs_enacted_;
  obs::Counter* obs_failed_;
};

/// Learned per-constraint hysteresis (§6 open issue: "systems that learn
/// from previous adaptations are required").
///
/// Fine-grained adaptive systems oscillate: a SWITCH away from a loaded
/// node loads the target, whose constraint switches back — the paper's §6
/// observation that "with finer-grained systems there are ... many
/// feedback loops ... difficult to attribute". The damper LEARNS a
/// per-constraint cooldown: when recent enactments alternate between two
/// remedies, the cooldown doubles (up to a cap); sustained quiet halves
/// it back. The rules themselves stay fixed — the closed-adaptivity model
/// is preserved; only a scalar per constraint is learned.
struct HysteresisOptions {
  bool enabled = false;
  SimTime base_cooldown = 0;       // minimum gap between enactments
  size_t oscillation_window = 4;   // enactments inspected for A/B/A/B
  double backoff_factor = 2.0;     // cooldown growth on oscillation
  SimTime initial_cooldown = Millis(100);  // first learned value
  SimTime max_cooldown = Seconds(10);
  SimTime decay_after = Seconds(5);  // quiet period that halves it
};

/// The session manager: evaluates the constraint table against the metric
/// bus and drives the adaptivity manager.
class SessionManager : public component::Component {
 public:
  SessionManager(std::string name, MetricBus* bus, ConstraintTable* table)
      : Component(std::move(name), "session-manager"),
        bus_(bus),
        table_(table) {
    DeclarePort("adaptivity", "adaptivity-manager");
    DeclarePort("state", "state-manager", /*optional=*/true);
    obs::Registry& reg = obs::Registry::Default();
    obs_evaluations_ = &reg.GetCounter("adapt.session.evaluations");
    obs_firings_ = &reg.GetCounter("adapt.session.rule_firings");
    obs_suppressed_ = &reg.GetCounter("adapt.session.suppressed");
  }

  void EnableHysteresis(HysteresisOptions options) {
    hysteresis_ = options;
  }
  /// Currently learned cooldown for a constraint (0 if none learned).
  SimTime LearnedCooldown(int constraint_id) const;
  uint64_t suppressed() const { return suppressed_; }

  /// Per-subject scorers for BEST/NEAREST/SWITCH. The "" scorer is the
  /// default.
  void SetScorer(const std::string& subject, const TargetScorer* scorer) {
    scorers_[subject] = scorer;
  }

  /// Evaluates the *triggered* (If-) constraints on `subject` (all of
  /// them when `subject` is empty); every one whose trigger fires and
  /// whose chosen target differs from the last enacted choice is
  /// forwarded to the adaptivity manager. Returns the number enacted.
  Result<int> CheckConstraints(SimTime now, std::string_view subject = {});

  /// Evaluates the highest-priority Select-rule for `subject` — the
  /// placement query used by inter-query adaptation (scenario 1).
  Result<Decision> Decide(const std::string& subject);

  uint64_t evaluations() const { return evaluations_; }
  uint64_t triggers() const { return triggers_; }

 private:
  const TargetScorer& ScorerFor(const std::string& subject) const;

  MetricBus* bus_;
  ConstraintTable* table_;
  std::map<std::string, const TargetScorer*> scorers_;
  TargetScorer default_scorer_;
  /// Last enacted target per constraint (decision debounce: a broken
  /// constraint whose remedy is already in place is not re-enacted).
  std::map<int, Target> last_enacted_;

  /// Hysteresis state per constraint.
  struct Damper {
    SimTime last_enacted_at = -1;
    SimTime cooldown = 0;  // learned
    std::deque<std::string> recent_targets;
  };
  HysteresisOptions hysteresis_;
  std::map<int, Damper> dampers_;
  uint64_t suppressed_ = 0;

  uint64_t evaluations_ = 0;
  uint64_t triggers_ = 0;
  obs::Counter* obs_evaluations_;
  obs::Counter* obs_firings_;
  obs::Counter* obs_suppressed_;
};

}  // namespace dbm::adapt

#endif  // DBM_ADAPT_SESSION_H_
