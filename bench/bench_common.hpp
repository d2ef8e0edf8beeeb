#pragma once

// Shared helpers for the experiment-reproduction binaries. Each bench
// regenerates one table or figure from the paper. By default campaign sizes
// are scaled down so every binary finishes in seconds to a couple of
// minutes; set PARASTACK_BENCH_SCALE=full for paper-sized campaigns.
//
// Campaigns fan out across worker threads (`--jobs N` on any bench binary,
// or PARASTACK_BENCH_JOBS=N; default: all hardware threads). Campaign
// results are byte-identical for any jobs value, so parallelism never
// changes a reproduced number.
//
// Every bench binary also takes `--metrics-out FILE`: at exit it writes one
// JSON MetricsRegistry document with the process-wide perf counters folded
// in (prefix "perf."), so any reproduction run can emit machine-readable
// metrics alongside its table.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"

namespace parastack::bench {

inline bool full_scale() {
  const char* env = std::getenv("PARASTACK_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

/// Campaign size: `quick` by default, `full` under PARASTACK_BENCH_SCALE=full.
inline int runs(int quick, int full) { return full_scale() ? full : quick; }

/// Command-line override for the worker count (set by parse_jobs).
inline int& jobs_override() {
  static int value = -1;  // -1 = no --jobs flag seen
  return value;
}

/// Process-wide perf-counter registry shared by every run a bench binary
/// executes. Counters are atomic, so parallel trials may all feed it; the
/// totals are order-independent and therefore identical for any --jobs.
/// Dumped (folded into the metrics registry) by --metrics-out.
inline obs::perf::ProfileRegistry& perf_registry() {
  static obs::perf::ProfileRegistry registry;
  return registry;
}

/// Process-wide metrics registry behind --metrics-out. Bench binaries may
/// fold their own campaign-level aggregates into it (counters, gauges,
/// summaries); the perf counters above are merged in at dump time.
inline obs::MetricsRegistry& metrics_registry() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Destination of the --metrics-out dump (empty = flag absent, no dump).
inline std::string& metrics_out_path() {
  static std::string path;
  return path;
}

/// atexit hook armed by parse_jobs when --metrics-out was given: merge the
/// perf counters into the metrics registry (prefixed "perf.", high-waters
/// keep their ".hw" suffix; wall-clock timers are excluded by design) and
/// write one deterministic JSON document.
inline void write_metrics_dump() {
  if (metrics_out_path().empty()) return;
  for (const auto& [name, value] : perf_registry().counter_snapshot()) {
    metrics_registry().counter("perf." + name) += value;
  }
  std::ofstream out(metrics_out_path());
  if (!out) {
    std::fprintf(stderr, "cannot open metrics file '%s'\n",
                 metrics_out_path().c_str());
    return;
  }
  metrics_registry().write_json(out);
}

/// A flag a bench binary parses itself; parse_jobs only has to let it by.
struct OwnFlag {
  const char* name;  ///< e.g. "--out"
  bool takes_value = false;  ///< `NAME VALUE` or `NAME=VALUE`
};

/// Print the usage line shared by every bench binary to `out`.
inline void print_usage(std::FILE* out, const char* argv0,
                        std::initializer_list<OwnFlag> own) {
  std::fprintf(out, "usage: %s [--jobs N] [--metrics-out FILE]", argv0);
  for (const OwnFlag& flag : own) {
    std::fprintf(out, flag.takes_value ? " [%s VALUE]" : " [%s]", flag.name);
  }
  std::fprintf(out,
               "\n  --jobs N            worker threads (0 = all hardware "
               "threads; also PARASTACK_BENCH_JOBS)\n"
               "  --metrics-out FILE  write a metrics JSON document at exit\n"
               "  PARASTACK_BENCH_SCALE=full runs paper-sized campaigns\n");
}

/// Parse argv: `--jobs N` / `--jobs=N`, `--metrics-out FILE` /
/// `--metrics-out=FILE`, and the binary's own flags `own`, which are left
/// for the binary to read. Every bench binary calls this first thing in
/// main() so the whole suite takes both flags uniformly; the metrics dump
/// happens automatically at process exit. `--help`/`-h` prints usage and
/// exits 0; any other argument (a typo such as `--job 2`) prints usage and
/// exits 2 before a campaign starts.
inline void parse_jobs(int argc, char** argv,
                       std::initializer_list<OwnFlag> own = {}) {
  // The value of `flag` when argv[i] is `flag VALUE` (consuming it) or
  // `flag=VALUE`; null when argv[i] is another argument.
  auto value_of = [&](int& i, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
    if (argv[i][n] == '=') return argv[i] + n + 1;
    if (argv[i][n] != '\0') return nullptr;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
      print_usage(stderr, argv[0], own);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0], own);
      std::exit(0);
    }
    if (const char* v = value_of(i, "--jobs")) {
      jobs_override() = std::atoi(v);
      continue;
    }
    if (const char* v = value_of(i, "--metrics-out")) {
      metrics_out_path() = v;
      continue;
    }
    bool known = false;
    for (const OwnFlag& flag : own) {
      if (flag.takes_value) {
        known = value_of(i, flag.name) != nullptr;
      } else {
        known = std::strcmp(argv[i], flag.name) == 0;
      }
      if (known) break;
    }
    if (!known) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      print_usage(stderr, argv[0], own);
      std::exit(2);
    }
  }
  if (!metrics_out_path().empty()) {
    // Touch both registries before registering the hook so their static
    // lifetimes outlast it (atexit handlers and static destructors run in
    // reverse registration order).
    (void)perf_registry();
    (void)metrics_registry();
    std::atexit([] { write_metrics_dump(); });
  }
}

/// Worker threads for campaign fan-out: --jobs beats PARASTACK_BENCH_JOBS
/// beats auto (one per hardware thread).
inline int jobs() {
  if (jobs_override() >= 0) return harness::resolve_jobs(jobs_override());
  if (const char* env = std::getenv("PARASTACK_BENCH_JOBS");
      env != nullptr && *env != '\0') {
    return harness::resolve_jobs(std::atoi(env));
  }
  return harness::default_jobs();
}

inline void header(const char* experiment, const char* paper_ref) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("mode: %s (set PARASTACK_BENCH_SCALE=full for paper-sized "
              "campaigns), %d worker thread%s\n",
              full_scale() ? "full" : "quick", jobs(),
              jobs() == 1 ? "" : "s");
  std::printf("=============================================================\n");
}

inline sim::Platform platform_by_name(const std::string& name) {
  if (name == "Tardis") return sim::Platform::tardis();
  if (name == "Tianhe-2") return sim::Platform::tianhe2();
  return sim::Platform::stampede();
}

/// Base erroneous-run configuration shared by the accuracy-style benches.
inline harness::RunConfig erroneous_config(workloads::Bench bench,
                                           const std::string& input,
                                           int nranks,
                                           const sim::Platform& platform) {
  harness::RunConfig config;
  config.bench = bench;
  config.input = input;
  config.nranks = nranks;
  config.platform = platform;
  config.fault = faults::FaultType::kComputeHang;
  config.perf = &perf_registry();
  return config;
}

/// One performance measurement series for the overhead experiments
/// (Table 4, Figures 7-8, Table 5): the per-run metric is wall-clock
/// seconds, or delivered GFLOPS for HPCG.
struct OverheadSeries {
  util::Summary metric;          ///< across runs
  std::vector<double> per_run;   ///< individual runs (Figs 7-8 plot these)
  bool is_gflops = false;
};

/// Run `nruns` clean jobs of `bench` at `nranks` on `platform`, either
/// without monitoring or with ParaStack at a FIXED interval (the overhead
/// study disables auto-tuning, §7.1-I: "Note I does not change in this
/// study"). Trials fan out across jobs() workers; the series is reduced in
/// trial order, so it is identical for any worker count.
inline OverheadSeries measure_performance(workloads::Bench bench, int nranks,
                                          const sim::Platform& platform,
                                          int nruns, std::uint64_t seed0,
                                          double fixed_interval_ms /*0=clean*/) {
  struct Trial {
    double value = 0.0;
    bool is_gflops = false;
  };
  std::vector<std::optional<Trial>> trials(
      static_cast<std::size_t>(nruns < 0 ? 0 : nruns));
  harness::parallel_for(nruns, jobs(), [&](int i) {
    harness::RunConfig config;
    config.bench = bench;
    config.nranks = nranks;
    config.platform = platform;
    config.perf = &perf_registry();
    config.seed = harness::derive_trial_seed(seed0, i);
    if (fixed_interval_ms > 0.0) {
      config.parastack_config().initial_interval =
          sim::from_millis(fixed_interval_ms);
      config.parastack_config().enable_interval_tuning = false;
    } else {
      config.detectors.clear();  // unmonitored baseline run
    }
    const auto result = harness::run_one(config);
    if (!result.completed) return;  // walltime expiry would skew the mean
    Trial trial;
    trial.value = sim::to_seconds(*result.finish_time);
    if (result.gflops > 0.0) {
      trial.value = result.gflops;
      trial.is_gflops = true;
    }
    trials[static_cast<std::size_t>(i)] = trial;
  });
  OverheadSeries series;
  for (const auto& trial : trials) {
    if (!trial) continue;
    series.metric.add(trial->value);
    series.per_run.push_back(trial->value);
    if (trial->is_gflops) series.is_gflops = true;
  }
  return series;
}

}  // namespace parastack::bench
