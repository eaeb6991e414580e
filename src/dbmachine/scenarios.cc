#include "dbmachine/scenarios.h"

#include <chrono>
#include <cstdlib>

#include "adl/parser.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "obs/tracectx.h"
#include "os/go_system.h"

namespace dbm::machine {

// ---------------------------------------------------------------------------
// Scenario 1
// ---------------------------------------------------------------------------

Result<Scenario1Report> RunScenario1(const Scenario1Config& config) {
  EventLoop loop;
  net::Network net(&loop);
  net.AddDevice({"sensor", net::DeviceClass::kSensor, 0.05, 80, 0, 0});
  net.AddDevice({"pda", net::DeviceClass::kPda, 0.2, 60, 0, 0});
  net.AddDevice({"laptop", net::DeviceClass::kLaptop, 1.0, 90, 3, 0});
  net.Connect("pda", "laptop", {2000, Millis(2), "wireless"});
  (*net.GetDevice("laptop"))->set_load(config.laptop_load);

  DatabaseMachine machine(&net);
  DBM_RETURN_NOT_OK(machine.InstrumentDevice("pda"));
  DBM_RETURN_NOT_OK(machine.InstrumentDevice("laptop"));

  // Personal data: primary on the laptop, summary version on the PDA.
  auto dc = std::make_shared<data::DataComponent>(
      "personal-data", data::gen::People(config.rows, config.seed),
      "laptop");
  DBM_RETURN_NOT_OK(dc->PublishVersion(data::VersionKind::kReplica, "laptop",
                                       0));
  DBM_RETURN_NOT_OK(dc->PublishVersion(data::VersionKind::kSummary, "pda", 0,
                                       config.summary_quality));
  DBM_RETURN_NOT_OK(dc->rules().Add(1, "personal-data", config.rule));
  DBM_RETURN_NOT_OK(machine.AttachData(dc, /*vantage=*/"pda"));
  DBM_RETURN_NOT_OK(machine.SampleAll());

  Scenario1Report report;
  bool completed = false;
  auto on_done = [&](const DataQueryResult& r) {
    report.query = r;
    report.quality = r.kind == data::VersionKind::kSummary
                         ? config.summary_quality
                         : 1.0;
    completed = true;
  };
  if (config.adaptive) {
    DBM_RETURN_NOT_OK(machine.QueryData("personal-data", "pda", on_done));
  } else {
    DBM_RETURN_NOT_OK(
        machine.QueryDataFrom("personal-data", "laptop", "pda", on_done));
  }
  loop.RunUntil();
  if (!completed) return Status::Internal("scenario 1 query never finished");
  return report;
}

// ---------------------------------------------------------------------------
// Scenario 2
// ---------------------------------------------------------------------------

const char* MobileCbmsAdl() {
  return R"(
// Fig 4: the component-based management system within the Laptop.
component QueryOptimiser {
  provide plan : optimiser;
  require net : netdriver;
}
component WirelessOptimiser {
  provide plan : optimiser;
  require net : netdriver;
}
component EthernetDriver {
  provide eth : netdriver;
}
component WirelessDriver {
  provide wifi : netdriver;
}
component SessionMgr {
  provide session;
  require optimiser : optimiser;
}

configuration DockedSession {
  inst sm : SessionMgr;
  inst opt : QueryOptimiser;
  inst drv : EthernetDriver;
  bind sm.optimiser -- opt;
  bind opt.net -- drv;
}

configuration WirelessSession {
  inst sm : SessionMgr;
  inst opt : WirelessOptimiser;
  inst drv : WirelessDriver;
  bind sm.optimiser -- opt;
  bind opt.net -- drv;
}
)";
}

namespace {

/// Runtime stand-in instantiated for ADL component types.
class GenericComponent : public component::Component {
 public:
  GenericComponent(const std::string& name,
                   const adl::ComponentTypeDecl& type)
      : Component(name, type.name) {
    for (const adl::ProvideDecl& p : type.provides) AddProvided(p.type);
    for (const adl::RequireDecl& r : type.required) {
      DeclarePort(r.name, r.type, r.optional);
    }
  }
};

/// Scores the ingest SWITCH rule: Current() is whichever ingest target is
/// serving delivery right now, so SWITCH moves away from it (to the
/// fallback while the primary serves, and back only if re-switched).
class IngestScorer : public adapt::TargetScorer {
 public:
  IngestScorer(std::shared_ptr<os::InterfaceId> active,
               os::InterfaceId primary)
      : active_(std::move(active)), primary_(primary) {}

  std::optional<adapt::Target> Current() const override {
    adapt::Target t;
    t.path = {"ingest",
              *active_ == primary_ ? std::string("primary")
                                   : std::string("fallback")};
    return t;
  }

 private:
  std::shared_ptr<os::InterfaceId> active_;
  os::InterfaceId primary_;
};

/// Arms the process injector for one scenario run and restores whatever
/// was armed before (the chaos CI's env spec survives a scoped arming).
class ScopedFaultSpec {
 public:
  ScopedFaultSpec(const std::string& spec, uint64_t seed) {
    if (spec.empty()) return;
    fault::Injector& inj = fault::Injector::Default();
    prev_spec_ = inj.spec();
    prev_seed_ = inj.seed();
    status_ = inj.Configure(spec, seed);
    armed_ = status_.ok();
  }
  ~ScopedFaultSpec() {
    if (armed_) {
      (void)fault::Injector::Default().Configure(prev_spec_, prev_seed_);
    }
  }
  const Status& status() const { return status_; }

 private:
  bool armed_ = false;
  std::string prev_spec_;
  uint64_t prev_seed_ = 0;
  Status status_;
};

}  // namespace

Result<Scenario2Report> RunScenario2(const Scenario2Config& config) {
  ScopedFaultSpec scoped_faults(config.fault_spec, config.fault_seed);
  DBM_RETURN_NOT_OK(scoped_faults.status());

  EventLoop loop;
  net::Network net(&loop);
  net.AddDevice({"sensor", net::DeviceClass::kSensor, 0.05, 80, 0, 0});
  net.AddDevice({"laptop", net::DeviceClass::kLaptop, 1.0, 90, 3, 0});
  net::Link* link = net.Connect("sensor", "laptop",
                                {config.docked_kbps, Millis(1), "wired"});
  (*net.GetDevice("laptop"))->set_docked(true);

  DatabaseMachine machine(&net);
  DBM_RETURN_NOT_OK(machine.InstrumentLink("sensor", "laptop"));

  // Instantiate the docked architecture from the Fig 4 description.
  DBM_ASSIGN_OR_RETURN(adl::Document doc, adl::Parse(MobileCbmsAdl()));
  adl::ComponentFactory factory =
      [&doc](const adl::InstanceDecl& inst)
      -> Result<component::ComponentPtr> {
    auto it = doc.types.find(inst.type);
    if (it == doc.types.end()) {
      return Status::NotFound("no ADL type '" + inst.type + "'");
    }
    return component::ComponentPtr(
        std::make_shared<GenericComponent>(inst.name, it->second));
  };
  DBM_RETURN_NOT_OK(adl::Instantiate(doc, doc.configurations.at(
                                              "DockedSession"),
                                     factory, &machine.registry()));

  // One root span for the whole delivery: injected faults, breaker
  // transitions and the SWITCH DecisionRecord all stamp this trace id,
  // which is how /obs/faults joins to /obs/decisions afterwards.
  obs::SpanScope request_span("scenario2.request", "scenario");

  Scenario2Report report;
  if (request_span.active()) {
    report.trace_id = request_span.context().trace_id.ToHex();
  }

  // Supervised ingest rig: primary + fallback ingest services behind the
  // ORB, each under a call policy. The breaker state is published as the
  // "ingest-breaker" gauge and a Table-2 rule switches delivery to the
  // fallback when it opens.
  std::shared_ptr<os::GoSystem> sys;
  os::InterfaceId ingest_primary = os::kInvalidInterface;
  os::InterfaceId ingest_fallback = os::kInvalidInterface;
  auto active_ingest = std::make_shared<os::InterfaceId>(os::kInvalidInterface);
  adapt::ConstraintTable ingest_rules;
  std::shared_ptr<adapt::SessionManager> ingest_sm;
  std::shared_ptr<adapt::AdaptivityManager> ingest_am;
  std::shared_ptr<IngestScorer> ingest_scorer;

  // The stream under observation.
  data::Relation readings =
      data::gen::SensorReadings(config.rows, /*seed=*/7);
  net::SensorStream::Options stream_options;
  stream_options.chunk_rows = config.chunk_rows;
  stream_options.stream_name = "scenario2";

  if (config.supervised) {
    sys = std::make_shared<os::GoSystem>();
    DBM_ASSIGN_OR_RETURN(
        auto primary,
        sys->LoadWithService(os::images::NullServer("ingest-primary")));
    DBM_ASSIGN_OR_RETURN(
        auto fallback,
        sys->LoadWithService(os::images::NullServer("ingest-fallback")));
    ingest_primary = primary.second;
    ingest_fallback = fallback.second;
    *active_ingest = ingest_primary;
    sys->orb().set_now_fn([&loop] { return loop.Now(); });
    os::CallPolicy policy;
    policy.max_retries = 2;
    policy.breaker_threshold = 3;
    DBM_RETURN_NOT_OK(sys->orb().SetCallPolicy(ingest_primary, policy));
    DBM_RETURN_NOT_OK(sys->orb().SetCallPolicy(ingest_fallback, policy));

    ingest_sm = std::make_shared<adapt::SessionManager>(
        "ingest-sm", &machine.bus(), &ingest_rules);
    ingest_am = std::make_shared<adapt::AdaptivityManager>();
    ingest_sm->FindPort("adaptivity")->SetTarget(ingest_am);
    ingest_scorer =
        std::make_shared<IngestScorer>(active_ingest, ingest_primary);
    ingest_sm->SetScorer("ingest", ingest_scorer.get());
    DBM_RETURN_NOT_OK(ingest_rules.Add(
        2, "ingest",
        "If ingest-breaker > 1 then SWITCH(ingest.primary, "
        "ingest.fallback)"));
    stream_options.on_deliver = [sys, active_ingest](size_t,
                                                     size_t) -> Status {
      return sys->orb().Call(*active_ingest);
    };
    stream_options.auto_resume = false;  // the SWITCH path resumes
  }

  net::SensorStream stream(&net, "sensor", "laptop", &readings,
                           stream_options);

  auto publish_breaker = [&] {
    if (sys == nullptr) return;
    machine.bus().Publish(
        "ingest-breaker",
        static_cast<double>(sys->orb().BreakerState(*active_ingest)),
        loop.Now());
  };
  if (config.supervised) {
    // Breaker open → flip delivery to the fallback and resume the stream
    // from its last safe point (the failed chunk replays whole).
    ingest_am->RegisterHandler(
        "ingest", [&](const adapt::AdaptationRequest&) -> Status {
          if (*active_ingest == ingest_fallback) return Status::OK();
          *active_ingest = ingest_fallback;
          ++report.breaker_switches;
          fault::Record(fault::FaultEventKind::kRecovery, "orb.ingest",
                        "SWITCHed delivery to fallback ingest after breaker "
                        "opened",
                        loop.Now());
          publish_breaker();
          if (stream.stalled()) (void)stream.Resume();
          return Status::OK();
        });
  }

  // The adaptation loop: sample the bandwidth gauge; when it collapses,
  // run the Fig 5 switchover (ADL reconfiguration) and move the stream to
  // the compressed version at its next safe point.
  bool switched = false;
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [&, weak_tick] {
    auto tick = weak_tick.lock();
    if (tick == nullptr) return;
    (void)machine.SampleAll();
    double bw = machine.bus().GetOr("bandwidth", config.docked_kbps);
    if (config.adaptive && !switched && bw < config.docked_kbps * 0.5) {
      switched = true;
      ++report.adaptation_events;
      Status s = machine.SwitchConfiguration(doc, "DockedSession",
                                             "WirelessSession", factory);
      report.reconfigured = s.ok();
      stream.RequestCodecSwitch("lz");
    }
    if (config.supervised) {
      // The supervised leg of the loop: breaker state → gauge → Table-2
      // rule → SWITCH enactment. A stall with no rule firing (transient
      // fault, or already on the fallback) is retried from the last safe
      // point.
      publish_breaker();
      (void)ingest_sm->CheckConstraints(loop.Now());
      if (stream.stalled()) (void)stream.Resume();
    }
    if (stream.stats().completed_at < 0) {
      loop.ScheduleAfter(config.tick_interval, [tick] { (*tick)(); });
    }
  };
  loop.ScheduleAfter(config.tick_interval, [tick] { (*tick)(); });

  // The undocking event.
  loop.ScheduleAt(config.undock_at, [&] {
    link->set_spec({config.wireless_kbps, Millis(8), "wireless"});
    (*net.GetDevice("laptop"))->set_docked(false);
  });

  // Fault events.
  if (config.kill_mid_switchover) {
    // Shortly after the undock the wireless link drops dead and the
    // in-flight chunk is lost with it; the stream must come back from its
    // last safe point once the link heals.
    loop.ScheduleAt(config.undock_at + Millis(2), [&] {
      link->set_up(false);
      stream.Kill();
      loop.ScheduleAfter(config.kill_duration, [&] { link->set_up(true); });
    });
  }
  if (config.supervised && config.kill_primary_at >= 0) {
    loop.ScheduleAt(config.kill_primary_at, [&] {
      (void)sys->orb().RevokeInterface(ingest_primary);
      fault::Record(fault::FaultEventKind::kInjected, "orb.ingest",
                    "primary ingest component killed (interface revoked)",
                    loop.Now());
    });
  }

  bool completed = false;
  DBM_RETURN_NOT_OK(stream.Start(
      [&](const net::SensorStream::Stats&) { completed = true; }));
  loop.RunUntil();
  if (!completed) return Status::Internal("scenario 2 stream never finished");

  report.stream = stream.stats();
  report.delivery_time = report.stream.completed_at;
  report.conforms_wireless =
      machine.CheckConforms(doc, "WirelessSession").ok();
  report.replays = report.stream.replays;
  report.lost_rows = config.rows > report.stream.rows_delivered
                         ? config.rows - report.stream.rows_delivered
                         : 0;
  return report;
}

// ---------------------------------------------------------------------------
// Scenario 3
// ---------------------------------------------------------------------------

Result<Scenario3Report> RunScenario3(const Scenario3Config& config) {
  data::Relation orders = data::gen::Orders(config.orders, config.people,
                                            config.zipf_theta, config.seed);
  data::Relation people = data::gen::People(config.people, config.seed + 1);
  data::RelationStats orders_stats = orders.ComputeStatistics();
  data::RelationStats people_stats = people.ComputeStatistics();
  orders_stats.PerturbCardinality(config.stats_error);

  query::JoinQuery q;
  q.left = query::TableInput{&orders, &orders_stats};
  q.right = query::TableInput{&people, &people_stats};
  q.spec = query::JoinSpec{1, 0};
  q.left_join_column = "person_id";
  q.right_join_column = "id";

  adapt::StateManager state;
  query::AdaptiveJoinExecutor exec{query::Optimizer(), &state};
  query::AdaptiveJoinExecutor::Options options;
  options.allow_reoptimization = config.adaptive;

  Scenario3Report report;

  // One request, one root span: everything below — the ORB delivery hop,
  // the executor's operator tree, the rule firing and the enactment —
  // hangs off this context.
  obs::SpanScope request_span("scenario3.request", "scenario");
  if (request_span.active()) {
    report.trace_id = request_span.context().trace_id.ToHex();
  }

  if (config.parallel) {
    // Morsel-driven plane: same join, run by the vCPU worker pool. The
    // build side is people (the small table), keyed on people.id (col 0)
    // against orders.person_id (col 1 of the probe pipeline).
    query::ParallelPlan plan;
    plan.probe.mem = &orders;
    query::ParallelJoinStage stage;
    stage.build.mem = &people;
    stage.spec = query::JoinSpec{0, 1};
    plan.joins.push_back(std::move(stage));

    // Fig-1 rig for the dop rule: the coordinator publishes
    // exec.worker-util each sampling interval; CheckConstraints runs the
    // Table-2 rule; the adaptivity manager's "dop" handler grants the
    // scale-up; the governor return value moves the live dop target.
    adapt::MetricBus bus;
    adapt::ConstraintTable rules;
    auto sm = std::make_shared<adapt::SessionManager>("session-manager",
                                                      &bus, &rules);
    auto am = std::make_shared<adapt::AdaptivityManager>();
    DBM_RETURN_NOT_OK(rules.Add(1, "dop", config.dop_rule));
    sm->FindPort("adaptivity")->SetTarget(am);

    size_t current_dop = config.dop_initial;
    adapt::NumericTargetScorer dop_scorer([&current_dop] {
      adapt::Target t;
      t.path = {"dop", std::to_string(current_dop)};
      return std::optional<adapt::Target>(std::move(t));
    });
    sm->SetScorer("dop", &dop_scorer);

    size_t granted_dop = 0;
    am->RegisterHandler(
        "dop", [&granted_dop, &current_dop](
                   const adapt::AdaptationRequest& req) {
          if (!req.decision.chosen.has_value() ||
              req.decision.chosen->path.size() < 2) {
            return Status::InvalidArgument("dop switch target is not dop.N");
          }
          size_t want = static_cast<size_t>(std::strtoul(
              req.decision.chosen->path.back().c_str(), nullptr, 10));
          // Scale-up only: the rule's alternatives include the setting we
          // came from, and dropping back mid-query would just thrash the
          // morsel schedule.
          if (want > current_dop) granted_dop = want;
          return Status::OK();
        });

    query::ParallelOptions popt;
    popt.dop = config.dop_initial;
    popt.dop_max = std::max(config.dop_target, config.dop_initial);
    popt.morsel_rows = 256;  // enough morsels for mid-query sampling
    popt.govern_interval = std::chrono::microseconds(200);
    popt.bus = &bus;
    popt.governor = [&](const query::GovernorSample& sample) -> size_t {
      granted_dop = 0;
      auto enacted =
          sm->CheckConstraints(static_cast<SimTime>(sample.morsels_done));
      if (enacted.ok() && *enacted > 0 && granted_dop > current_dop) {
        current_dop = granted_dop;
        return granted_dop;
      }
      return 0;
    };

    std::vector<query::Tuple> out;
    DBM_ASSIGN_OR_RETURN(query::ParallelStats pstats,
                         query::ExecuteParallel(plan, &out, popt));
    report.parallel_exec = pstats;
    report.result_rows = out.size();
    report.rule_firings = sm->triggers();
    report.dop_enactments = am->enacted();
    return report;
  }

  // Fig-1 rig: gauges feed the session manager, whose Table-2 rule
  // decides the plan switch; the adaptivity manager enacts it.
  adapt::MetricBus bus;
  adapt::ConstraintTable rules;
  auto sm = std::make_shared<adapt::SessionManager>("session-manager", &bus,
                                                    &rules);
  auto am = std::make_shared<adapt::AdaptivityManager>();
  // Outlives the fig1_loop block: both the "plan" handler and the
  // reopt_arbiter below reference it during exec.Run.
  bool approved = false;
  if (config.fig1_loop) {
    // The request is delivered through the ORB (Table 1's Go! RPC): load
    // a null query-entry service and hop into it. The trace context rides
    // the migrating thread.
    os::GoSystem sys;
    DBM_ASSIGN_OR_RETURN(auto server,
                         sys.LoadWithService(os::images::NullServer(
                             "query-entry")));
    DBM_RETURN_NOT_OK(sys.orb().Call(server.second));

    DBM_RETURN_NOT_OK(rules.Add(
        1, "plan",
        "If build-divergence > " +
            std::to_string(options.divergence_threshold) +
            " then SWITCH(plan.hash_build_left, plan.hash_build_right)"));
    sm->FindPort("adaptivity")->SetTarget(am);

    am->RegisterHandler("plan",
                        [&approved](const adapt::AdaptationRequest&) {
                          approved = true;
                          return Status::OK();
                        });
    // The executor's divergence detection stays, but the *decision* to
    // re-optimise moves into the session manager: publish the observed
    // divergence as a gauge, check constraints, re-plan only if the rule
    // fired and the adaptivity manager enacted the switch.
    options.reopt_arbiter = [&](uint64_t actual_build_rows,
                                double estimated_build_rows,
                                const query::JoinPlan&) {
      approved = false;
      double divergence =
          estimated_build_rows > 0
              ? static_cast<double>(actual_build_rows) / estimated_build_rows
              : 0;
      bus.Publish("build-divergence", divergence, 0);
      auto enacted = sm->CheckConstraints(0);
      return enacted.ok() && *enacted > 0 && approved;
    };
  }

  std::vector<query::Tuple> out;
  DBM_ASSIGN_OR_RETURN(query::ExecStats stats, exec.Run(q, &out, options));
  report.exec = stats;
  report.result_rows = out.size();
  report.rule_firings = sm->triggers();
  return report;
}

}  // namespace dbm::machine
