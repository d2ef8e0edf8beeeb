// Cross-commit golden pin for the telemetry writers: the FNV-1a digests of
// the journal (rank spans included), the metrics document and the Chrome
// trace of two fixed runs are compared with constants. The determinism
// tests compare reruns of one build; these constants catch a formatting
// change between builds — a writer rewrite must leave every byte alone.
// The constants were recorded with the ostream-per-character writer that
// the reused line buffer replaced.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "fleet/fleet.hpp"
#include "harness/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "recover/spec.hpp"

namespace parastack {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t digest = UINT64_C(0xCBF29CE484222325);
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= UINT64_C(0x100000001B3);
  }
  return digest;
}

struct Artifacts {
  std::string journal;
  std::string metrics;
  std::string trace;
};

/// Runs `drive` with a journal (rank spans on), a metrics sink and a Chrome
/// trace attached, and returns the three rendered documents.
template <typename Drive>
Artifacts capture(Drive drive) {
  std::ostringstream journal_out;
  obs::JsonlJournal journal(journal_out, obs::JsonlJournal::Options{true});
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(registry);
  obs::ChromeTraceWriter trace;
  obs::MultiSink sinks({&journal, &metrics, &trace});
  drive(sinks);
  Artifacts out;
  out.journal = journal_out.str();
  std::ostringstream metrics_out;
  registry.write_json(metrics_out);
  out.metrics = metrics_out.str();
  std::ostringstream trace_out;
  trace.write(trace_out);
  out.trace = trace_out.str();
  return out;
}

TEST(ObsGolden, LossyTreeComputeHangRun) {
  // LU/16 at two cores per node: eight monitors in a 4-ary tree, with
  // partial loss and delay so the impaired-sample fields are rendered too.
  const Artifacts a = capture([](obs::TelemetrySink& sink) {
    harness::RunConfig config;
    config.bench = workloads::Bench::kLU;
    config.input = "C";
    config.nranks = 16;
    config.platform = sim::Platform::tianhe2();
    config.platform.cores_per_node = 2;
    config.seed = 1234;
    config.fault = faults::FaultType::kComputeHang;
    config.monitor_tree.fanout = 4;
    config.tool_faults.loss_probability = 0.1;
    config.tool_faults.delay_mean = sim::from_millis(1);
    config.telemetry = &sink;
    const harness::RunResult result = harness::run_one(config);
    EXPECT_TRUE(result.parastack_detected());
  });
  EXPECT_NE(a.journal.find("\"tree\":true"), std::string::npos);
  EXPECT_NE(a.journal.find("\"coverage\":"), std::string::npos);
  EXPECT_NE(a.journal.find("rank_span"), std::string::npos);
  EXPECT_EQ(fnv1a(a.journal), UINT64_C(0x2F7B25C3FACB3914))
      << std::hex << fnv1a(a.journal);
  EXPECT_EQ(fnv1a(a.metrics), UINT64_C(0xD2AA64103B37AE6C))
      << std::hex << fnv1a(a.metrics);
  EXPECT_EQ(fnv1a(a.trace), UINT64_C(0xB40EA620EC51952F))
      << std::hex << fnv1a(a.trace);
}

TEST(ObsGolden, ThreeTenantCheckpointFleet) {
  const Artifacts a = capture([](obs::TelemetrySink& sink) {
    fleet::FleetConfig config;
    config.base.bench = workloads::Bench::kLU;
    config.base.input = "C";
    config.base.nranks = 16;
    config.base.platform = sim::Platform::tianhe2();
    config.base.seed = 77;
    config.base.fault = faults::FaultType::kComputeHang;
    const auto recovery = recover::parse_recovery("ckpt");
    ASSERT_TRUE(recovery.has_value());
    config.base.recovery = *recovery;
    config.arrivals.jobs = 3;
    config.telemetry = &sink;
    const fleet::FleetResult result = fleet::run_fleet(config);
    EXPECT_EQ(result.tenants.size(), 3u);
  });
  EXPECT_NE(a.journal.find("fleet_admit"), std::string::npos);
  EXPECT_NE(a.journal.find("\"ev\":\"recovery\""), std::string::npos);
  EXPECT_EQ(fnv1a(a.journal), UINT64_C(0xEF52DD24BADD4DA7))
      << std::hex << fnv1a(a.journal);
  EXPECT_EQ(fnv1a(a.metrics), UINT64_C(0x7A63004F4747A0EA))
      << std::hex << fnv1a(a.metrics);
  EXPECT_EQ(fnv1a(a.trace), UINT64_C(0xAB5ADC334CE1844D))
      << std::hex << fnv1a(a.trace);
}

}  // namespace
}  // namespace parastack
