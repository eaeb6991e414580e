#include "adapt/session.h"

#include <algorithm>

#include "obs/health.h"
#include "obs/tracectx.h"

namespace dbm::adapt {

Status ConstraintTable::Add(int id, const std::string& subject,
                            std::string_view rule_text, int priority) {
  DBM_ASSIGN_OR_RETURN(Rule rule, ParseRule(rule_text));
  return Add(Constraint{id, subject, std::move(rule), priority});
}

Status ConstraintTable::Add(Constraint constraint) {
  if (rows_.count(constraint.id) > 0) {
    return Status::AlreadyExists("constraint " +
                                 std::to_string(constraint.id) +
                                 " already present");
  }
  rows_[constraint.id] = std::move(constraint);
  return Status::OK();
}

Status ConstraintTable::Remove(int id) {
  return rows_.erase(id) > 0
             ? Status::OK()
             : Status::NotFound("no constraint " + std::to_string(id));
}

namespace {
void SortByPriority(std::vector<const Constraint*>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Constraint* a, const Constraint* b) {
              return std::tie(a->priority, a->id) <
                     std::tie(b->priority, b->id);
            });
}
}  // namespace

std::vector<const Constraint*> ConstraintTable::ForSubject(
    const std::string& subject) const {
  std::vector<const Constraint*> out;
  for (const auto& [_, c] : rows_) {
    if (c.subject == subject) out.push_back(&c);
  }
  SortByPriority(&out);
  return out;
}

std::vector<const Constraint*> ConstraintTable::All() const {
  std::vector<const Constraint*> out;
  out.reserve(rows_.size());
  for (const auto& [_, c] : rows_) out.push_back(&c);
  SortByPriority(&out);
  return out;
}

const Constraint* ConstraintTable::Find(int id) const {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

Status AdaptivityManager::Enact(const AdaptationRequest& request) {
  // The reconfiguration leg of the Fig-1 loop: nested under the rule
  // firing that requested it when one is open on this thread.
  obs::SpanScope enact_span("adapt.enact", "adapt");
  enact_span.SetSimRange(static_cast<uint64_t>(request.at), 0);
  Handler* handler = nullptr;
  auto it = handlers_.find(request.subject);
  if (it != handlers_.end()) {
    handler = &it->second;
  } else {
    it = handlers_.find("");
    if (it != handlers_.end()) handler = &it->second;
  }
  Status outcome;
  if (handler == nullptr) {
    outcome = Status::NotFound("no adaptation handler for subject '" +
                               request.subject + "'");
  } else {
    outcome = (*handler)(request);
  }
  log_.push_back(AdaptationEvent{request, outcome});
  if (outcome.ok()) {
    ++enacted_;
    obs_enacted_->Add(1);
  } else {
    ++failed_;
    obs_failed_->Add(1);
  }
  return outcome;
}

const TargetScorer& SessionManager::ScorerFor(
    const std::string& subject) const {
  auto it = scorers_.find(subject);
  if (it != scorers_.end()) return *it->second;
  it = scorers_.find("");
  if (it != scorers_.end()) return *it->second;
  return default_scorer_;
}

SimTime SessionManager::LearnedCooldown(int constraint_id) const {
  auto it = dampers_.find(constraint_id);
  return it == dampers_.end() ? 0 : it->second.cooldown;
}

Result<int> SessionManager::CheckConstraints(SimTime now,
                                             std::string_view subject) {
  DBM_ASSIGN_OR_RETURN(AdaptivityManager * am,
                       Require<AdaptivityManager>("adaptivity"));
  int enacted = 0;
  for (const Constraint* c : table_->All()) {
    if (!subject.empty() && c->subject != subject) continue;
    if (!c->rule.trigger.has_value()) continue;  // Select rules: on demand
    ++evaluations_;
    obs_evaluations_->Add(1);
    DBM_ASSIGN_OR_RETURN(Decision d,
                         Evaluate(c->rule, *bus_, ScorerFor(c->subject)));
    if (!d.fired || !d.chosen.has_value()) continue;
    // When an else-branch fires it is the steady state, not a broken
    // constraint; still enact on first sight or change of choice.
    auto last = last_enacted_.find(c->id);
    if (last != last_enacted_.end() && last->second == *d.chosen) continue;

    Damper& damper = dampers_[c->id];
    if (hysteresis_.enabled && damper.last_enacted_at >= 0) {
      SimTime gap = now - damper.last_enacted_at;
      // Quiet period: the learned cooldown decays back toward base.
      if (gap > hysteresis_.decay_after && damper.cooldown > 0) {
        damper.cooldown =
            std::max(hysteresis_.base_cooldown, damper.cooldown / 2);
      }
      SimTime effective =
          std::max(hysteresis_.base_cooldown, damper.cooldown);
      if (gap < effective) {
        ++suppressed_;
        obs_suppressed_->Add(1);
        continue;  // damped: hold the current remedy a little longer
      }
    }

    ++triggers_;
    obs_firings_->Add(1);
    // The decision leg of the Fig-1 loop. The span joins the firing to
    // the triggering request's trace; the DecisionRecord is the audit row
    // — rule text, the gauge readings the evaluation consumed, and the
    // chosen remedy — and is logged even outside any sampled trace
    // (firings are rare; the decision log must not depend on sampling).
    obs::SpanScope firing_span("rule_firing", "adapt.session");
    firing_span.SetSimRange(static_cast<uint64_t>(now), 0);
    obs::DecisionRecord decision_rec;
    const obs::TraceContext& trace_ctx = firing_span.active()
                                             ? firing_span.context()
                                             : obs::CurrentContext();
    decision_rec.trace_id = trace_ctx.trace_id;
    decision_rec.span_id = trace_ctx.span_id;
    decision_rec.at_host_ns = obs::NowHostNs();
    decision_rec.at_sim_us = now;
    decision_rec.constraint_id = c->id;
    decision_rec.SetSubject(c->subject);
    decision_rec.SetRule(c->rule.ToString());
    decision_rec.SetAction(std::string(ActionKindName(d.kind)) + " -> " +
                           d.chosen->ToString());
    for (const auto& [metric, value] : d.gauges_read) {
      decision_rec.AddGauge(metric, value);
    }
    obs::Tracer::Default().Emit(decision_rec);
    AdaptationRequest req{c->id, c->subject, d, now};
    Status s = am->Enact(req);
    if (s.ok()) {
      // End-to-end Fig-1 loop latency for this decision: from the OLDEST
      // gauge reading the evaluation consumed to the enactment, both in
      // simulated time. Joinable to the DecisionRecord above by trace id.
      SimTime latency = 0;
      for (const auto& [metric, value] : d.gauges_read) {
        (void)value;
        auto age = bus_->Age(metric, now);
        if (age.ok() && *age > latency) latency = *age;
      }
      obs::LoopLatencyRecord loop_rec;
      loop_rec.trace_id = trace_ctx.trace_id;
      loop_rec.span_id = trace_ctx.span_id;
      loop_rec.constraint_id = c->id;
      loop_rec.at_sim_us = now;
      loop_rec.latency_us = latency;
      obs::LoopHealth::Default().RecordLoopLatency(loop_rec);
      last_enacted_[c->id] = *d.chosen;
      // The debounce asks "is this constraint's remedy already in
      // place?" — once a DIFFERENT constraint on the same subject
      // enacts, the world has moved and that memory is stale. Without
      // this, a reversible pair (scale up / scale down on one subject)
      // fires each direction exactly once and then deadlocks on its own
      // history.
      for (auto it = last_enacted_.begin(); it != last_enacted_.end();) {
        const Constraint* other = table_->Find(it->first);
        if (it->first != c->id &&
            (other == nullptr || other->subject == c->subject)) {
          it = last_enacted_.erase(it);
        } else {
          ++it;
        }
      }
      ++enacted;
      if (hysteresis_.enabled) {
        damper.last_enacted_at = now;
        damper.recent_targets.push_back(d.chosen->ToString());
        if (damper.recent_targets.size() > hysteresis_.oscillation_window) {
          damper.recent_targets.pop_front();
        }
        // Oscillation = the window alternates between exactly two
        // remedies (A,B,A,B...). Learn a longer cooldown.
        const auto& r = damper.recent_targets;
        if (r.size() >= hysteresis_.oscillation_window) {
          bool alternating = true;
          for (size_t i = 2; i < r.size(); ++i) {
            if (r[i] != r[i - 2]) {
              alternating = false;
              break;
            }
          }
          if (alternating && r.size() >= 2 && r[0] != r[1]) {
            SimTime next =
                damper.cooldown == 0
                    ? hysteresis_.initial_cooldown
                    : static_cast<SimTime>(
                          static_cast<double>(damper.cooldown) *
                          hysteresis_.backoff_factor);
            damper.cooldown = std::min(hysteresis_.max_cooldown, next);
          }
        }
      }
    }
  }
  return enacted;
}

Result<Decision> SessionManager::Decide(const std::string& subject) {
  for (const Constraint* c : table_->ForSubject(subject)) {
    if (c->rule.trigger.has_value()) continue;
    ++evaluations_;
    obs_evaluations_->Add(1);
    return Evaluate(c->rule, *bus_, ScorerFor(subject));
  }
  return Status::NotFound("no Select rule for subject '" + subject + "'");
}

}  // namespace dbm::adapt
