#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/histogram.hpp"
#include "util/summary.hpp"

namespace parastack::obs {

/// Retained-sample distribution for low-volume latency data (detection
/// spans: a handful per run). Keeps every value so the JSON dump can report
/// exact p50/p95/p99 — fine at campaign scale, wrong for per-event streams
/// (use util::Histogram there).
class Digest {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

/// Named counters, gauges, streaming summaries, and fixed-bucket histograms
/// with deterministic JSON export (keys sorted — std::map — and values pure
/// functions of the seed). Accessors create on first use, so call sites
/// read like `registry.counter("detector.samples")++`. Lookups are
/// transparent: a name that is already registered costs no std::string.
class MetricsRegistry {
 public:
  std::uint64_t& counter(std::string_view name);
  double& gauge(std::string_view name);
  util::Summary& summary(std::string_view name);
  /// The (lo, hi, buckets) shape is fixed by whoever names the histogram
  /// first; later callers get the existing instance.
  util::Histogram& histogram(std::string_view name, double lo, double hi,
                             std::size_t buckets);
  Digest& digest(std::string_view name);

  bool has_counter(std::string_view name) const {
    return counters_.count(name) != 0;
  }
  std::uint64_t counter_value(std::string_view name) const;

  /// One JSON document: {"counters":{...},"digests":{...},"gauges":{...},
  /// "summaries":{...},"histograms":{...}}. Keys sorted, doubles rendered
  /// with the fixed json_number format: byte-stable per seed. Rendered in
  /// memory and written in one call.
  void write_json(std::ostream& out) const;

 private:
  template <typename T>
  using Named = std::map<std::string, T, std::less<>>;

  Named<std::uint64_t> counters_;
  Named<double> gauges_;
  Named<util::Summary> summaries_;
  Named<util::Histogram> histograms_;
  Named<Digest> digests_;
};

/// TelemetrySink that folds the event stream into a MetricsRegistry:
/// sample/trace/traffic counters, streak-length and S_crout histograms,
/// aggregation-latency and interval distributions. The registry outlives
/// the sink; several runs (a campaign) may share one registry.
class MetricsSink final : public TelemetrySink {
 public:
  explicit MetricsSink(MetricsRegistry& registry);

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
  void on_detection_span(const DetectionSpanEvent& e) override;

 private:
  MetricsRegistry& registry_;
};

}  // namespace parastack::obs
