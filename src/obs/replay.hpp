#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "obs/telemetry.hpp"

namespace parastack::obs {

/// Records a telemetry stream so it can be replayed into another sink
/// later, in emission order and with identical field values.
///
/// This is what makes telemetry safe under the parallel campaign harness:
/// each concurrent trial gets its own RecordingSink (no shared mutable
/// state on the hot path), and the campaign replays the recordings into
/// the real sink one trial at a time, in trial order — so a journal
/// written through N workers is byte-identical to the serial one.
///
/// Event structs carry `std::string_view` fields that may reference
/// run-local storage (the runner's input string, a platform name); the
/// recorder copies each distinct string once into an internal pool so a
/// recording outlives the run that produced it. Rank spans repeat a few
/// function names hundreds of thousands of times, so the pool stays tiny.
class RecordingSink final : public TelemetrySink {
 public:
  /// `wants_rank_spans` must mirror the eventual replay target: producers
  /// consult it before building span events, so a mismatch would record a
  /// different stream than the target expects.
  explicit RecordingSink(bool wants_rank_spans = false)
      : wants_rank_spans_(wants_rank_spans) {}

  /// Re-emit every recorded event into `target`, in recording order.
  void replay(TelemetrySink& target) const;

  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  /// Distinct non-empty strings the recorded events refer to.
  std::size_t interned_strings() const noexcept { return strings_.size(); }

  void on_sample(const SampleEvent& e) override;
  void on_runs_test(const RunsTestEvent& e) override;
  void on_interval(const IntervalEvent& e) override;
  void on_streak(const StreakEvent& e) override;
  void on_filter(const FilterEvent& e) override;
  void on_sweep(const SweepEvent& e) override;
  void on_hang(const HangEvent& e) override;
  void on_slowdown(const SlowdownEvent& e) override;
  void on_detection(const DetectionEvent& e) override;
  void on_monitor_sample(const MonitorSampleEvent& e) override;
  void on_monitor_level(const MonitorLevelEvent& e) override;
  void on_monitor_crash(const MonitorCrashEvent& e) override;
  void on_lead_failover(const LeadFailoverEvent& e) override;
  void on_tree_failover(const TreeFailoverEvent& e) override;
  void on_sample_timeout(const SampleTimeoutEvent& e) override;
  void on_degraded_mode(const DegradedModeEvent& e) override;
  void on_phase_change(const PhaseChangeEvent& e) override;
  void on_fault(const FaultEvent& e) override;
  void on_run_start(const RunStartEvent& e) override;
  void on_run_end(const RunEndEvent& e) override;
  void on_recovery(const RecoveryEvent& e) override;
  void on_fleet_admit(const FleetAdmitEvent& e) override;
  void on_detection_span(const DetectionSpanEvent& e) override;
  void on_rank_span(const RankSpanEvent& e) override;
  bool wants_rank_spans() const override { return wants_rank_spans_; }

 private:
  using Event =
      std::variant<SampleEvent, RunsTestEvent, IntervalEvent, StreakEvent,
                   FilterEvent, SweepEvent, HangEvent, SlowdownEvent,
                   DetectionEvent, MonitorSampleEvent, MonitorLevelEvent,
                   MonitorCrashEvent, LeadFailoverEvent, TreeFailoverEvent,
                   SampleTimeoutEvent, DegradedModeEvent, PhaseChangeEvent,
                   FaultEvent, RunStartEvent, RunEndEvent, RecoveryEvent,
                   FleetAdmitEvent, DetectionSpanEvent, RankSpanEvent>;

  /// A view of the pooled copy of `view`, made on first sight.
  std::string_view intern(std::string_view view);

  bool wants_rank_spans_;
  /// Node-based: an element never moves, so the views stay valid as the
  /// pool grows. std::less<> looks a string_view up without a copy.
  std::set<std::string, std::less<>> strings_;
  /// Pooled views indexed by a hash of the producer's buffer address.
  /// Producers hand over the same few buffers (function names, labels)
  /// again and again, so a slot whose text matches skips the tree search;
  /// the text compare keeps a reused buffer with new contents correct.
  std::array<std::string_view, 64> recent_{};
  std::vector<Event> events_;
};

}  // namespace parastack::obs
