// bench_fleet — the ISSUE 10 fleet-scale measurement: one detector service
// watching a thousand-plus concurrent simulated jobs through src/fleet.
// Four readings, matching the fleet layer's acceptance bar:
//
//   1. sustained ingestion throughput: samples/sec over the busy span of
//      the central ingestion layer (virtual fleet timeline) plus the
//      wall-clock tenant and sample rates of the whole fleet run;
//   2. detection-latency degradation under load: the p95 across tenants of
//      the mean verdict ingest delay (verdict emission -> batch completion
//      at the service), against the single-job baseline's delay;
//   3. cross-tenant isolation while one tenant's tool faults spike: every
//      tenant's journal bytes must be invariant under fleet growth even
//      with the noisy tenant flooding the ingestion layer with retries;
//   4. fleet machine-hours saved: Fig 10's SU-savings accounting (PR 9)
//      rolled up across the whole fleet.
//
//   bench_fleet [--quick] [--out FILE] [--jobs N] [--metrics-out FILE]
//
// The load scenario admits >= 1000 tenants whose lifetimes overlap (peak
// concurrency is measured from the admission ledger and printed). Ingestion
// ledgers and the SU bill are pure functions of the seed; only the wall
// rates vary with the host.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"
#include "obs/json.hpp"
#include "util/summary.hpp"

using namespace parastack;

namespace {

struct Record {
  std::string scenario;
  std::string metric;
  double value = 0.0;
};

/// The fleet's base tenant: the accuracy-suite erroneous run (LU/C hang on
/// Tardis) at one monitor per tenant, so a 1000-tenant fleet needs 1000
/// concurrent monitor slots.
fleet::FleetConfig base_fleet(int tenants, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.base = bench::erroneous_config(workloads::Bench::kLU, "C", 32,
                                        sim::Platform::tardis());
  config.base.seed = seed;
  config.base.perf = nullptr;  // run_fleet attaches the shared registry
  config.arrivals.jobs = tenants;
  config.jobs = bench::jobs();
  config.perf = &bench::perf_registry();
  return config;
}

/// Peak number of simultaneously-running admitted jobs, from the admission
/// ledger's [arrival, end) intervals.
int peak_concurrency(const fleet::FleetResult& result) {
  std::vector<std::pair<sim::Time, int>> edges;
  for (const auto& tenant : result.tenants) {
    if (!tenant.admitted) continue;
    edges.push_back({tenant.arrival, +1});
    edges.push_back({tenant.end_at, -1});
  }
  std::sort(edges.begin(), edges.end());
  int live = 0;
  int peak = 0;
  for (const auto& [at, delta] : edges) {
    live += delta;
    peak = std::max(peak, live);
  }
  return peak;
}

/// Mean verdict ingest delay per tenant (ms), for tenants that produced at
/// least one detection verdict.
std::vector<double> verdict_delays(const fleet::FleetResult& result) {
  std::vector<double> delays;
  for (std::size_t t = 0; t < result.tenant_ingest.size(); ++t) {
    const fleet::TenantIngest& ingest = result.tenant_ingest[t];
    if (ingest.verdicts > 0) delays.push_back(ingest.verdict_delay_ms.mean());
  }
  return delays;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void write_bench_json(std::ostream& out, const std::vector<Record>& records,
                      bool quick) {
  std::string doc = "{\"bench\":\"bench_fleet\",\"issue\":10,\"mode\":";
  doc += quick ? "\"quick\"" : "\"full\"";
  doc += ",\"records\":[";
  bool first = true;
  for (const auto& record : records) {
    doc += first ? "\n  " : ",\n  ";
    first = false;
    obs::JsonObject(doc)
        .field("scenario", record.scenario)
        .field("metric", record.metric)
        .field("value", record.value);
  }
  doc += "\n]}\n";
  out << doc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_jobs(argc, argv, {{"--quick"}, {"--out", true}});
  bool quick = !bench::full_scale();
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  // The acceptance bar is >= 1000 concurrent jobs, so even quick mode runs
  // the full thousand; full mode doubles it.
  const int load_tenants = quick ? 1000 : 2000;
  const int isolation_tenants = quick ? 6 : 10;

  bench::header("bench_fleet: multi-tenant detector service at scale",
                "tooling (no paper table): fleet mode over Fig 10's "
                "SU-savings accounting");

  std::vector<Record> records;

  // --- Single-job baseline: the detection latency one tenant sees with
  // the ingestion service to itself.
  const fleet::FleetResult baseline = fleet::run_fleet(base_fleet(1, 42));
  const std::vector<double> baseline_delays = verdict_delays(baseline);
  if (baseline_delays.empty()) {
    std::fprintf(stderr,
                 "bench_fleet: baseline tenant produced no verdict\n");
    return 1;
  }
  const double baseline_delay_ms = baseline_delays.front();
  records.push_back({"baseline", "verdict_delay_ms", baseline_delay_ms});
  std::printf("baseline: 1 tenant, verdict ingest delay %.2fms\n",
              baseline_delay_ms);

  // --- Load: >= 1000 tenants arriving over tight Poisson gaps, so their
  // ~3-minute lifetimes all overlap.
  fleet::FleetConfig load = base_fleet(load_tenants, 42);
  load.arrivals.mean_interarrival = 50 * sim::kMillisecond;
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult under_load = fleet::run_fleet(load);
  const double elapsed = seconds_since(t0);

  const int peak = peak_concurrency(under_load);
  const double virtual_rate = under_load.ingest.sustained_per_sec();
  const double wall_samples =
      static_cast<double>(under_load.ingest.pushed) / elapsed;
  const double wall_tenants = load_tenants / elapsed;
  std::vector<double> delays = verdict_delays(under_load);
  std::sort(delays.begin(), delays.end());
  const double p95 = util::quantile(delays, 0.95);
  const double degradation_pct =
      baseline_delay_ms > 0.0
          ? (p95 / baseline_delay_ms - 1.0) * 100.0
          : 0.0;
  const double hours_saved = under_load.bill.machine_hours_saved(
      load.base.platform.cores_per_node);

  std::printf("load: %d tenants, peak %d concurrent jobs, wall %.1fs "
              "(%.1f tenants/s)\n",
              load_tenants, peak, elapsed, wall_tenants);
  std::printf("  ingest: %llu samples, %.0f samples/s sustained (virtual), "
              "%.0f samples/s (wall), %llu backpressure waits\n",
              static_cast<unsigned long long>(under_load.ingest.pushed),
              virtual_rate, wall_samples,
              static_cast<unsigned long long>(
                  under_load.ingest.backpressure_waits));
  std::printf("  detection latency: p95 verdict ingest delay %.2fms across "
              "%zu tenants (%+.1f%% vs single-job baseline %.2fms)\n",
              p95, delays.size(), degradation_pct, baseline_delay_ms);
  std::printf("  bill: %.1f SUs charged, %.1f SUs saved, "
              "%.1f machine-hours saved\n",
              under_load.bill.su_billed, under_load.bill.su_saved,
              hours_saved);
  if (peak < 1000) {
    std::fprintf(stderr,
                 "bench_fleet: peak concurrency %d below the 1000-job bar\n",
                 peak);
    return 1;
  }

  records.push_back({"load", "peak_concurrent_jobs",
                     static_cast<double>(peak)});
  records.push_back({"load", "samples_per_sec_virtual", virtual_rate});
  records.push_back({"load", "samples_per_sec_wall", wall_samples});
  records.push_back({"load", "tenants_per_sec_wall", wall_tenants});
  records.push_back({"load", "verdict_delay_p95_ms", p95});
  records.push_back({"load", "verdict_delay_degradation_pct",
                     degradation_pct});
  records.push_back({"load", "machine_hours_saved", hours_saved});

  // --- Isolation: the base tenant's tool faults spike (sample loss plus
  // delivery delays flood the monitor network with retries), and every
  // tenant's journal must still be byte-invariant when the fleet grows —
  // co-tenant scheduling never leaks into a tenant's detector stream.
  const auto isolation_fleet = [&](int tenants) {
    fleet::FleetConfig config = base_fleet(tenants, 77);
    config.arrivals.model = fleet::ArrivalModel::kTrace;
    config.arrivals.mean_interarrival = 5 * sim::kSecond;
    config.base.tool_faults.loss_probability = 0.25;
    config.base.tool_faults.delay_mean = sim::from_millis(40);
    config.capture_tenant_journals = true;
    return fleet::run_fleet(config);
  };
  const fleet::FleetResult small = isolation_fleet(isolation_tenants);
  const fleet::FleetResult grown = isolation_fleet(isolation_tenants + 1);
  for (int t = 0; t < isolation_tenants; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    if (small.tenant_journals[i] != grown.tenant_journals[i]) {
      std::fprintf(stderr,
                   "bench_fleet: tenant %d's journal moved when a co-tenant "
                   "joined (isolation violated)\n",
                   t);
      return 1;
    }
  }
  std::printf("isolation: %d tenants with tool faults spiking "
              "(loss 0.25, delay 40ms): journals byte-invariant under "
              "fleet growth\n",
              isolation_tenants);
  records.push_back({"isolation", "tenants_checked",
                     static_cast<double>(isolation_tenants)});

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
      return 1;
    }
    write_bench_json(out, records, quick);
    std::printf("wrote %zu records to %s\n", records.size(),
                out_path.c_str());
  }
  return 0;
}
