#include "query/executor.h"

#include "common/strings.h"
#include "obs/alloc_hook.h"
#include "obs/trace.h"
#include "obs/tracectx.h"

namespace dbm::query {

namespace {

// Handles resolved once per process; the executor's per-tuple loop stays
// string-free (counts are flushed from ExecStats at end of run).
struct ExecObs {
  obs::Counter& runs;
  obs::Counter& rows;
  obs::Counter& safe_points;
  obs::Counter& reopt_events;
  obs::Counter& reopt_wasted_us;
  obs::Histogram& latency_us;
  obs::Histogram& host_ticks;

  static ExecObs& Get() {
    static ExecObs* m = [] {
      obs::Registry& reg = obs::Registry::Default();
      return new ExecObs{reg.GetCounter("query.exec.runs"),
                         reg.GetCounter("query.exec.rows"),
                         reg.GetCounter("query.exec.safe_points"),
                         reg.GetCounter("query.reopt.events"),
                         reg.GetCounter("query.reopt.wasted_us"),
                         reg.GetHistogram("query.exec.latency_us"),
                         reg.GetHistogram("query.exec.host_ticks")};
    }();
    return *m;
  }

  void RecordRun(const ExecStats& stats) {
    runs.Add(1);
    rows.Add(stats.rows);
    safe_points.Add(stats.safe_points);
    reopt_events.Add(stats.reoptimizations);
    reopt_wasted_us.Add(static_cast<uint64_t>(stats.wasted_time));
    latency_us.Record(static_cast<uint64_t>(stats.Latency()));
  }
};

// Emits one causal span per operator in the tree, parented along plan
// edges. Operators run interleaved inside the executor's pull loop, so
// per-operator timing is not separable; each span carries the whole run's
// range and exists for its *structure* — the trace tree mirrors the plan
// tree, hanging off `parent` (the query.execute span).
void EmitOperatorSpans(Operator& op, const obs::TraceContext& parent,
                       const obs::SpanRecord& range, obs::Tracer& tracer) {
  obs::SpanRecord rec = range;
  rec.trace_id = parent.trace_id;
  rec.parent_span_id = parent.span_id;
  rec.span_id = tracer.NextSpanId();
  rec.SetName(op.name());
  rec.SetCategory("query.operator");
  tracer.Emit(rec);
  obs::TraceContext child_ctx;
  child_ctx.trace_id = rec.trace_id;
  child_ctx.span_id = rec.span_id;
  op.VisitChildren([&](Operator& child) {
    EmitOperatorSpans(child, child_ctx, range, tracer);
  });
}

// Run-range template for EmitOperatorSpans from a finished execution.
obs::SpanRecord RunRange(uint64_t start_host_ns, SimTime sim_begin,
                         SimTime sim_end) {
  obs::SpanRecord range;
  range.start_host_ns = start_host_ns;
  range.dur_host_ns = obs::NowHostNs() - start_host_ns;
  range.sim_begin = static_cast<uint64_t>(sim_begin);
  range.sim_dur = static_cast<uint64_t>(sim_end - sim_begin);
  return range;
}

// EXPLAIN ANALYZE for the generic pull loop: the operator tree walked
// after the run, per-node rows from OperatorStats. Allocations are only
// measurable at run granularity here (the pull loop interleaves every
// operator), so the delta lands on the root node — the Σ-equals-total
// invariant holds, and the parallel path refines the split.
void FillSerialProfile(QueryProfile* profile, Operator& root,
                       const ExecStats& stats, uint64_t allocs_before,
                       uint64_t host_start_ns) {
  profile->root = ProfileFromOperators(root);
  profile->dop = 1;
  profile->total_rows = stats.rows;
  profile->total_cycles = profile->SumCycles();
  profile->total_allocs = obs::AllocCount() - allocs_before;
  profile->root.allocs = profile->total_allocs;
  profile->total_pages = profile->SumPages();
  profile->host_ns = obs::NowHostNs() - host_start_ns;
  const obs::TraceContext& ctx = obs::CurrentContext();
  if (ctx.valid()) profile->trace_id = ctx.trace_id.ToHex();
  PublishProfile(*profile);
}

}  // namespace

Result<ExecStats> Execute(Operator* root, std::vector<Tuple>* out,
                          const ExecOptions& options) {
  obs::TraceSpan span(&ExecObs::Get().host_ticks);
  obs::SpanScope exec_span("query.execute", "query");
  uint64_t host_start = obs::NowHostNs();
  const uint64_t allocs_before =
      options.profile != nullptr ? obs::AllocCount() : 0;
  ExecStats stats;
  stats.started_at = options.start_time;
  SimTime now = options.start_time;
  DBM_RETURN_NOT_OK(root->Open());
  uint64_t pulls = 0;
  while (true) {
    DBM_ASSIGN_OR_RETURN(Step step, root->Next(now));
    ++pulls;
    switch (step.kind) {
      case Step::Kind::kTuple:
        now += options.cpu_per_tuple;
        ++stats.rows;
        if (stats.first_row_at < 0) stats.first_row_at = now;
        if (out != nullptr) out->push_back(std::move(step.tuple));
        break;
      case Step::Kind::kNotReady:
        now = std::max(now + 1, step.ready_at);  // wait for the source
        break;
      case Step::Kind::kEnd:
        stats.finished_at = now;
        DBM_RETURN_NOT_OK(root->Close());
        ExecObs::Get().RecordRun(stats);
        if (exec_span.active()) {
          exec_span.SetSimRange(
              static_cast<uint64_t>(stats.started_at),
              static_cast<uint64_t>(stats.finished_at - stats.started_at));
          EmitOperatorSpans(*root, exec_span.context(),
                            RunRange(host_start, stats.started_at, now),
                            obs::Tracer::Default());
        }
        if (options.profile != nullptr) {
          FillSerialProfile(options.profile, *root, stats, allocs_before,
                            host_start);
        }
        return stats;
    }
    if (options.safe_point_every > 0 &&
        pulls % options.safe_point_every == 0) {
      ++stats.safe_points;
      if (options.on_safe_point && !options.on_safe_point(stats)) {
        stats.finished_at = now;
        DBM_RETURN_NOT_OK(root->Close());
        ExecObs::Get().RecordRun(stats);
        if (exec_span.active()) {
          exec_span.SetSimRange(
              static_cast<uint64_t>(stats.started_at),
              static_cast<uint64_t>(stats.finished_at - stats.started_at));
          EmitOperatorSpans(*root, exec_span.context(),
                            RunRange(host_start, stats.started_at, now),
                            obs::Tracer::Default());
        }
        if (options.profile != nullptr) {
          FillSerialProfile(options.profile, *root, stats, allocs_before,
                            host_start);
        }
        return stats;
      }
    }
  }
}

Result<ExecStats> AdaptiveJoinExecutor::Run(const JoinQuery& query,
                                            std::vector<Tuple>* out,
                                            const Options& options) {
  obs::TraceSpan span(&ExecObs::Get().host_ticks);
  obs::SpanScope exec_span("query.adaptive_join", "query");
  uint64_t host_start = obs::NowHostNs();
  DBM_ASSIGN_OR_RETURN(JoinPlan plan, optimizer_.Plan(query));

  ExecStats total;
  total.started_at = 0;
  SimTime now = 0;
  int attempt = 0;

  while (true) {
    ++attempt;
    OperatorPtr root = plan.Build(query);
    auto* hj = dynamic_cast<HashJoin*>(root.get());
    bool build_left = plan.algorithm == JoinAlgorithm::kHashBuildLeft;

    // Install the safe-point hook inside the build: when the actual build
    // cardinality diverges past the threshold AND the corrected plan
    // differs, the hook checkpoints the consistent state with the State
    // Manager and aborts the build so the executor can restart better.
    std::optional<JoinPlan> corrected_plan;
    if (hj != nullptr && options.allow_reoptimization &&
        total.reoptimizations < 2) {
      double est_build = plan.estimated_build_rows;
      hj->set_build_monitor(
          [&, est_build, build_left](uint64_t build_rows) -> Status {
            ++total.safe_points;
            double actual = static_cast<double>(build_rows);
            double other = build_left ? query.right.EstimatedRows()
                                      : query.left.EstimatedRows();
            if (actual <= est_build * options.divergence_threshold ||
                actual <= other) {
              return Status::OK();
            }
            double left_rows =
                build_left ? actual : query.left.EstimatedRows();
            double right_rows =
                build_left ? query.right.EstimatedRows() : actual;
            auto corrected = optimizer_.PlanWithCardinalities(
                query, left_rows, right_rows);
            if (!corrected.ok()) return corrected.status();
            if (corrected->algorithm == plan.algorithm) return Status::OK();
            if (options.reopt_arbiter &&
                !options.reopt_arbiter(build_rows, est_build, *corrected)) {
              return Status::OK();
            }
            if (state_mgr_ != nullptr) {
              component::StateBlob blob;
              blob.type = "join-progress";
              blob.words = {static_cast<int64_t>(build_rows),
                            static_cast<int64_t>(now)};
              DBM_RETURN_NOT_OK(
                  state_mgr_->Save("adaptive-join", std::move(blob)));
            }
            corrected_plan = *corrected;
            return Status::Aborted("re-optimise");
          },
          options.safe_point_every);
    }

    DBM_RETURN_NOT_OK(root->Open());
    SimTime attempt_start = now;
    bool restarted = false;

    while (true) {
      auto step = root->Next(now);
      if (!step.ok()) {
        if (step.status().IsAborted() && corrected_plan.has_value()) {
          // Mid-query re-optimisation: charge the abandoned work, switch
          // to the corrected plan and restart.
          (void)root->Close();
          // Charge simulated build time for the abandoned rows.
          now += static_cast<SimTime>(hj->build_rows()) *
                 options.cpu_per_tuple;
          total.wasted_time += (now - attempt_start);
          ++total.reoptimizations;
          {
            obs::SpanScope reopt_span("query.reoptimize", "query.adapt");
            reopt_span.SetSimRange(
                static_cast<uint64_t>(attempt_start),
                static_cast<uint64_t>(now - attempt_start));
          }
          plan = *corrected_plan;
          restarted = true;
          break;
        }
        return step.status();
      }
      if (step->kind == Step::Kind::kTuple) {
        now += options.cpu_per_tuple;
        ++total.rows;
        if (total.first_row_at < 0) total.first_row_at = now;
        if (out != nullptr) out->push_back(std::move(step->tuple));
      } else if (step->kind == Step::Kind::kNotReady) {
        now = std::max(now + 1, step->ready_at);
      } else {
        // Charge build cost so plan quality shows up in simulated time.
        if (hj != nullptr) {
          now += static_cast<SimTime>(hj->build_rows()) *
                 options.cpu_per_tuple;
        }
        total.finished_at = now;
        total.final_plan = JoinAlgorithmName(plan.algorithm);
        DBM_RETURN_NOT_OK(root->Close());
        ExecObs::Get().RecordRun(total);
        if (exec_span.active()) {
          exec_span.SetSimRange(0, static_cast<uint64_t>(now));
          EmitOperatorSpans(*root, exec_span.context(),
                            RunRange(host_start, 0, now),
                            obs::Tracer::Default());
        }
        return total;
      }
    }
    if (!restarted) {
      return Status::Internal("adaptive executor left its loop unexpectedly");
    }
  }
}

}  // namespace dbm::query
