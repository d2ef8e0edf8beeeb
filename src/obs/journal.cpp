#include "obs/journal.hpp"

namespace parastack::obs {

namespace {

const char* streak_kind_name(StreakEvent::Kind kind) {
  switch (kind) {
    case StreakEvent::Kind::kAdvance: return "advance";
    case StreakEvent::Kind::kReset: return "reset";
    case StreakEvent::Kind::kVerify: return "verify";
  }
  return "?";
}

const char* filter_stage_name(FilterEvent::Stage stage) {
  switch (stage) {
    case FilterEvent::Stage::kEnter: return "enter";
    case FilterEvent::Stage::kRetry: return "retry";
    case FilterEvent::Stage::kSlowdown: return "slowdown";
    case FilterEvent::Stage::kHangConfirmed: return "hang-confirmed";
  }
  return "?";
}

const char* span_kind_name(RankSpanEvent::Kind kind) {
  switch (kind) {
    case RankSpanEvent::Kind::kCompute: return "compute";
    case RankSpanEvent::Kind::kBlockingMpi: return "mpi";
    case RankSpanEvent::Kind::kBusyWait: return "busy-wait";
    case RankSpanEvent::Kind::kIo: return "io";
  }
  return "?";
}

}  // namespace

JsonObject JsonlJournal::open_line(std::string_view ev,
                                   std::string_view detector) {
  ++lines_;
  JsonObject line(out_, line_, "\n");
  line.field("ev", ev);
  if (!detector.empty()) line.field("det", detector);
  return line;
}

void JsonlJournal::on_sample(const SampleEvent& e) {
  JsonObject line = open_line("sample", e.detector);
  line.field("t_ns", e.time)
      .field("phase", e.phase)
      .field("set", e.active_set)
      .field("n", e.observation)
      .field("scrout", e.scrout)
      .field("interval_ns", e.interval)
      .field("ready", e.model_ready)
      .field("random_ok", e.randomness_confirmed)
      .field("frozen", e.model_frozen)
      .field("threshold", e.threshold)
      .field("q", e.q)
      .field("k", e.required_streak)
      .field("suspicious", e.suspicious)
      .field("streak", e.streak);
  if (e.coverage < 1.0 || e.degraded) {
    line.field("coverage", e.coverage).field("degraded", e.degraded);
  }
}

void JsonlJournal::on_runs_test(const RunsTestEvent& e) {
  JsonObject line = open_line("runs_test", e.detector);
  line.field("t_ns", e.time)
      .field("sample_size", e.sample_size)
      .field("runs", e.runs)
      .field("n_pos", e.n_pos)
      .field("n_neg", e.n_neg)
      .field("random", e.random);
}

void JsonlJournal::on_interval(const IntervalEvent& e) {
  JsonObject line = open_line("interval_doubled", e.detector);
  line.field("t_ns", e.time)
      .field("old_ns", e.old_interval)
      .field("new_ns", e.new_interval)
      .field("doublings", e.doublings)
      .field("capped", e.capped);
}

void JsonlJournal::on_streak(const StreakEvent& e) {
  JsonObject line = open_line("streak", e.detector);
  line.field("t_ns", e.time)
      .field("kind", streak_kind_name(e.kind))
      .field("len", e.length)
      .field("k", e.required)
      .field("reason", e.reason);
}

void JsonlJournal::on_filter(const FilterEvent& e) {
  JsonObject line = open_line("filter", e.detector);
  line.field("t_ns", e.time)
      .field("stage", filter_stage_name(e.stage))
      .field("round", e.round);
  if (!e.evidence.empty()) line.field("evidence", e.evidence);
}

void JsonlJournal::on_sweep(const SweepEvent& e) {
  JsonObject line = open_line("sweep", e.detector);
  line.field("t_ns", e.time)
      .field("ranks", e.ranks)
      .field("purpose", e.purpose)
      .field("round", e.round);
}

void JsonlJournal::on_hang(const HangEvent& e) {
  std::string ranks = "[";
  for (std::size_t i = 0; i < e.faulty_ranks.size(); ++i) {
    if (i > 0) ranks += ',';
    json_integer(ranks, e.faulty_ranks[i]);
  }
  ranks += ']';
  JsonObject line = open_line("hang", e.detector);
  line.field("t_ns", e.time)
      .field("kind", e.computation_error ? "computation" : "communication")
      .raw("faulty_ranks", ranks)
      .field("streak", e.streak)
      .field("q", e.q)
      .field("k", e.required_streak)
      .field("interval_ns", e.interval);
}

void JsonlJournal::on_slowdown(const SlowdownEvent& e) {
  JsonObject line = open_line("slowdown", e.detector);
  line.field("t_ns", e.time)
      .field("rounds", e.rounds);
  if (!e.evidence.empty()) line.field("evidence", e.evidence);
}

void JsonlJournal::on_detection(const DetectionEvent& e) {
  JsonObject line = open_line("detection", e.detector);
  line.field("t_ns", e.time).field("kind", e.kind);
  if (e.silence > 0) line.field("silence_ns", e.silence);
}

void JsonlJournal::on_monitor_sample(const MonitorSampleEvent& e) {
  JsonObject line = open_line("monitor_sample");
  line.field("t_ns", e.time)
      .field("ranks_traced", e.ranks_traced)
      .field("active", e.active_monitors)
      .field("monitors", e.monitor_count)
      .field("messages", e.messages)
      .field("bytes", e.bytes)
      .field("agg_latency_ns", e.aggregation_latency);
  // Tree fields appear only when a k-ary topology is armed: flat-star
  // journals stay byte-identical to the pre-tree format.
  if (e.tree) {
    line.field("tree", true)
        .field("levels", e.levels)
        .field("root_fan_in", e.root_fan_in);
  }
  // Tool-fault fields appear only on impaired samples: healthy journals
  // stay byte-identical to the pre-fault-model format.
  if (e.partials_missing > 0 || e.retries > 0 || e.coverage < 1.0 ||
      e.degraded) {
    line.field("missing", e.partials_missing)
        .field("retries", e.retries)
        .field("coverage", e.coverage)
        .field("degraded", e.degraded);
  }
}

void JsonlJournal::on_monitor_level(const MonitorLevelEvent& e) {
  JsonObject line = open_line("monitor_level");
  line.field("t_ns", e.time)
      .field("level", e.level)
      .field("senders", e.senders)
      .field("max_fan_in", e.max_fan_in)
      .field("latency_ns", e.latency);
}

void JsonlJournal::on_monitor_crash(const MonitorCrashEvent& e) {
  JsonObject line = open_line("monitor_crash");
  line.field("t_ns", e.time)
      .field("monitor", e.monitor)
      .field("was_lead", e.was_lead)
      .field("alive", e.alive);
}

void JsonlJournal::on_lead_failover(const LeadFailoverEvent& e) {
  JsonObject line = open_line("lead_failover");
  line.field("t_ns", e.time)
      .field("from", e.from)
      .field("to", e.to)
      .field("rereg_ns", e.reregistration_latency);
}

void JsonlJournal::on_tree_failover(const TreeFailoverEvent& e) {
  JsonObject line = open_line("tree_failover");
  line.field("t_ns", e.time)
      .field("failed", e.failed)
      .field("promoted", e.promoted)
      .field("parent", e.parent)
      .field("adopted", e.adopted)
      .field("rereg_ns", e.reregistration_latency);
}

void JsonlJournal::on_sample_timeout(const SampleTimeoutEvent& e) {
  JsonObject line = open_line("sample_timeout");
  line.field("t_ns", e.time)
      .field("monitor", e.monitor)
      .field("retries", e.retries)
      .field("recovered", e.recovered);
}

void JsonlJournal::on_degraded_mode(const DegradedModeEvent& e) {
  JsonObject line = open_line("degraded_mode", e.detector);
  line.field("t_ns", e.time)
      .field("entered", e.entered)
      .field("coverage", e.coverage)
      .field("low_streak", e.consecutive_low);
}

void JsonlJournal::on_phase_change(const PhaseChangeEvent& e) {
  JsonObject line = open_line("phase_change", e.detector);
  line.field("t_ns", e.time)
      .field("from", e.from_phase)
      .field("to", e.to_phase)
      .field("resumed", e.resumed)
      .field("aborted_verification", e.aborted_verification);
}

void JsonlJournal::on_fault(const FaultEvent& e) {
  JsonObject line = open_line("fault");
  line.field("t_ns", e.time)
      .field("type", e.type)
      .field("victim", e.victim);
}

void JsonlJournal::on_run_start(const RunStartEvent& e) {
  JsonObject line = open_line("run_start");
  line.field("bench", e.bench)
      .field("input", e.input)
      .field("ranks", e.nranks)
      .field("nodes", e.nnodes)
      .field("platform", e.platform)
      .field("seed", e.seed)
      .field("run", e.run_index)
      .field("estimated_clean_ns", e.estimated_clean)
      .field("walltime_ns", e.walltime)
      .field("fault", e.fault_planned);
}

void JsonlJournal::on_run_end(const RunEndEvent& e) {
  JsonObject line = open_line("run_end");
  line.field("t_ns", e.time)
      .field("run", e.run_index)
      .field("completed", e.completed)
      .field("killed", e.killed)
      .field("finish_ns", e.finish_time)
      .field("end_ns", e.end_time)
      .field("traces", e.traces)
      .field("trace_cost_ns", e.trace_cost)
      .field("hangs", e.hangs)
      .field("slowdowns", e.slowdowns)
      .field("model_samples", e.model_samples)
      .field("final_interval_ns", e.final_interval);
}

void JsonlJournal::on_recovery(const RecoveryEvent& e) {
  JsonObject line = open_line("recovery");
  line.field("t_ns", e.time)
      .field("policy", e.policy)
      .field("action", e.action)
      .field("attempt", e.attempt)
      .field("degraded", e.degraded)
      .field("resume_ns", e.resume_from)
      .field("overhead_ns", e.overhead)
      .field("next_start_ns", e.next_start)
      .field("run", e.run_index);
  if (!e.detail.empty()) line.field("detail", e.detail);
}

void JsonlJournal::on_fleet_admit(const FleetAdmitEvent& e) {
  JsonObject line = open_line("fleet_admit");
  line.field("t_ns", e.time)
      .field("tenant", e.tenant)
      .field("admitted", e.admitted)
      .field("monitors", e.monitors)
      .field("pool_in_use", e.pool_in_use);
  if (e.pool_capacity > 0) line.field("pool_capacity", e.pool_capacity);
}

void JsonlJournal::on_detection_span(const DetectionSpanEvent& e) {
  JsonObject line = open_line("det_span", e.detector);
  line.field("t_ns", e.time)
      .field("span", e.span)
      .field("begin_ns", e.begin)
      .field("end_ns", e.end)
      .field("run", e.run_index);
}

void JsonlJournal::on_rank_span(const RankSpanEvent& e) {
  if (!options_.record_rank_spans) return;
  JsonObject line = open_line("rank_span");
  line.field("rank", e.rank)
      .field("kind", span_kind_name(e.kind))
      .field("func", e.func)
      .field("begin_ns", e.begin)
      .field("end_ns", e.end);
}

}  // namespace parastack::obs
