#include "obs/replay.hpp"

#include <cstdint>

namespace parastack::obs {

std::string_view RecordingSink::intern(std::string_view view) {
  if (view.empty()) return {};
  const std::uint64_t address = reinterpret_cast<std::uintptr_t>(view.data());
  std::string_view& slot =
      recent_[(address * UINT64_C(0x9E3779B97F4A7C15)) >> 58];
  if (slot == view) return slot;
  auto it = strings_.lower_bound(view);
  if (it == strings_.end() || *it != view) {
    it = strings_.emplace_hint(it, view);
  }
  slot = *it;
  return slot;
}

void RecordingSink::on_sample(const SampleEvent& e) {
  SampleEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_runs_test(const RunsTestEvent& e) {
  RunsTestEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_interval(const IntervalEvent& e) {
  IntervalEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_streak(const StreakEvent& e) {
  StreakEvent copy = e;
  copy.detector = intern(e.detector);
  copy.reason = intern(e.reason);
  events_.push_back(copy);
}

void RecordingSink::on_filter(const FilterEvent& e) {
  FilterEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_sweep(const SweepEvent& e) {
  SweepEvent copy = e;
  copy.detector = intern(e.detector);
  copy.purpose = intern(e.purpose);
  events_.push_back(copy);
}

void RecordingSink::on_hang(const HangEvent& e) {
  HangEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_slowdown(const SlowdownEvent& e) {
  SlowdownEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_detection(const DetectionEvent& e) {
  DetectionEvent copy = e;
  copy.detector = intern(e.detector);
  copy.kind = intern(e.kind);
  events_.push_back(copy);
}

void RecordingSink::on_monitor_sample(const MonitorSampleEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_monitor_level(const MonitorLevelEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_monitor_crash(const MonitorCrashEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_lead_failover(const LeadFailoverEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_tree_failover(const TreeFailoverEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_sample_timeout(const SampleTimeoutEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_degraded_mode(const DegradedModeEvent& e) {
  DegradedModeEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_phase_change(const PhaseChangeEvent& e) {
  PhaseChangeEvent copy = e;
  copy.detector = intern(e.detector);
  events_.push_back(copy);
}

void RecordingSink::on_fault(const FaultEvent& e) {
  FaultEvent copy = e;
  copy.type = intern(e.type);
  events_.push_back(copy);
}

void RecordingSink::on_run_start(const RunStartEvent& e) {
  RunStartEvent copy = e;
  copy.bench = intern(e.bench);
  copy.input = intern(e.input);
  copy.platform = intern(e.platform);
  copy.fault_planned = intern(e.fault_planned);
  events_.push_back(copy);
}

void RecordingSink::on_run_end(const RunEndEvent& e) { events_.push_back(e); }

void RecordingSink::on_recovery(const RecoveryEvent& e) {
  RecoveryEvent copy = e;
  copy.policy = intern(e.policy);
  copy.action = intern(e.action);
  events_.push_back(copy);
}

void RecordingSink::on_fleet_admit(const FleetAdmitEvent& e) {
  events_.push_back(e);
}

void RecordingSink::on_detection_span(const DetectionSpanEvent& e) {
  DetectionSpanEvent copy = e;
  copy.detector = intern(e.detector);
  copy.span = intern(e.span);
  events_.push_back(copy);
}

void RecordingSink::on_rank_span(const RankSpanEvent& e) {
  RankSpanEvent copy = e;
  copy.func = intern(e.func);
  events_.push_back(copy);
}

void RecordingSink::replay(TelemetrySink& target) const {
  struct Dispatch {
    TelemetrySink& target;
    void operator()(const SampleEvent& e) const { target.on_sample(e); }
    void operator()(const RunsTestEvent& e) const { target.on_runs_test(e); }
    void operator()(const IntervalEvent& e) const { target.on_interval(e); }
    void operator()(const StreakEvent& e) const { target.on_streak(e); }
    void operator()(const FilterEvent& e) const { target.on_filter(e); }
    void operator()(const SweepEvent& e) const { target.on_sweep(e); }
    void operator()(const HangEvent& e) const { target.on_hang(e); }
    void operator()(const SlowdownEvent& e) const { target.on_slowdown(e); }
    void operator()(const DetectionEvent& e) const { target.on_detection(e); }
    void operator()(const MonitorSampleEvent& e) const {
      target.on_monitor_sample(e);
    }
    void operator()(const MonitorLevelEvent& e) const {
      target.on_monitor_level(e);
    }
    void operator()(const MonitorCrashEvent& e) const {
      target.on_monitor_crash(e);
    }
    void operator()(const LeadFailoverEvent& e) const {
      target.on_lead_failover(e);
    }
    void operator()(const TreeFailoverEvent& e) const {
      target.on_tree_failover(e);
    }
    void operator()(const SampleTimeoutEvent& e) const {
      target.on_sample_timeout(e);
    }
    void operator()(const DegradedModeEvent& e) const {
      target.on_degraded_mode(e);
    }
    void operator()(const PhaseChangeEvent& e) const {
      target.on_phase_change(e);
    }
    void operator()(const FaultEvent& e) const { target.on_fault(e); }
    void operator()(const RunStartEvent& e) const { target.on_run_start(e); }
    void operator()(const RunEndEvent& e) const { target.on_run_end(e); }
    void operator()(const RecoveryEvent& e) const { target.on_recovery(e); }
    void operator()(const FleetAdmitEvent& e) const {
      target.on_fleet_admit(e);
    }
    void operator()(const DetectionSpanEvent& e) const {
      target.on_detection_span(e);
    }
    void operator()(const RankSpanEvent& e) const { target.on_rank_span(e); }
  };
  for (const Event& event : events_) {
    std::visit(Dispatch{target}, event);
  }
}

}  // namespace parastack::obs
