#include "check/oracles.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "check/invariants.hpp"
#include "core/faulty_id.hpp"
#include "core/slowdown_filter.hpp"
#include "fleet/fleet.hpp"
#include "harness/campaign.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "obs/perf.hpp"
#include "obs/replay.hpp"
#include "trace/inspector.hpp"
#include "util/rng.hpp"

namespace parastack::check {

namespace {

void fail(SeedReport& report, const char* oracle, std::string detail) {
  report.failures.push_back(OracleFailure{oracle, std::move(detail)});
}

/// First differing entry between two perf-counter snapshots, formatted for
/// a failure message. Empty string when the maps are identical. Timers are
/// already absent from snapshots by design — only the deterministic
/// counters and high-water gauges are compared.
std::string snapshot_divergence(
    const std::map<std::string, std::uint64_t>& a,
    const std::map<std::string, std::uint64_t>& b) {
  if (a == b) return {};
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      return "perf counter \"" + name + "\" present in one run only";
    }
    if (it->second != value) {
      char buffer[160];
      std::snprintf(buffer, sizeof buffer,
                    "perf counter \"%s\" diverged: %llu vs %llu", name.c_str(),
                    static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(it->second));
      return buffer;
    }
  }
  for (const auto& [name, value] : b) {
    if (a.find(name) == a.end()) {
      return "perf counter \"" + name + "\" present in one run only";
    }
  }
  return "perf snapshots diverged";
}

std::string first_divergence(const std::string& a, const std::string& b) {
  if (a == b) return {};
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  // Report the line containing the divergence, not the raw byte offset.
  const std::size_t line = 1 + static_cast<std::size_t>(std::count(
                                   a.begin(), a.begin() + static_cast<long>(i),
                                   '\n'));
  char buffer[128];
  std::snprintf(buffer, sizeof buffer,
                "journals diverge at byte %zu (line %zu; sizes %zu vs %zu)", i,
                line, a.size(), b.size());
  return buffer;
}

/// Forwards a telemetry stream, warping every timed event from the middle
/// of the stream onward backwards by `skew`. With any positive skew the
/// event at the midpoint fires before its predecessor (or before t=0), so
/// a correct InvariantSink must flag the stream. Exists purely so pscheck
/// can prove its own alarm rings.
class ClockWarpSink final : public obs::TelemetrySink {
 public:
  ClockWarpSink(obs::TelemetrySink& inner, sim::Time skew,
                std::size_t warp_from)
      : inner_(inner), skew_(skew), warp_from_(warp_from) {}

  void on_sample(const obs::SampleEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_sample(w);
  }
  void on_runs_test(const obs::RunsTestEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_runs_test(w);
  }
  void on_interval(const obs::IntervalEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_interval(w);
  }
  void on_streak(const obs::StreakEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_streak(w);
  }
  void on_filter(const obs::FilterEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_filter(w);
  }
  void on_sweep(const obs::SweepEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_sweep(w);
  }
  void on_hang(const obs::HangEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_hang(w);
  }
  void on_slowdown(const obs::SlowdownEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_slowdown(w);
  }
  void on_detection(const obs::DetectionEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_detection(w);
  }
  void on_detection_span(const obs::DetectionSpanEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_detection_span(w);
  }
  void on_monitor_sample(const obs::MonitorSampleEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_monitor_sample(w);
  }
  void on_monitor_level(const obs::MonitorLevelEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_monitor_level(w);
  }
  void on_tree_failover(const obs::TreeFailoverEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_tree_failover(w);
  }
  void on_monitor_crash(const obs::MonitorCrashEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_monitor_crash(w);
  }
  void on_lead_failover(const obs::LeadFailoverEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_lead_failover(w);
  }
  void on_sample_timeout(const obs::SampleTimeoutEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_sample_timeout(w);
  }
  void on_degraded_mode(const obs::DegradedModeEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_degraded_mode(w);
  }
  void on_phase_change(const obs::PhaseChangeEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_phase_change(w);
  }
  void on_fault(const obs::FaultEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_fault(w);
  }
  void on_run_start(const obs::RunStartEvent& e) override {
    inner_.on_run_start(e);  // carries no clock: nothing to warp
  }
  void on_run_end(const obs::RunEndEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_run_end(w);
  }
  void on_recovery(const obs::RecoveryEvent& e) override {
    auto w = e;
    w.time = warp(w.time);
    inner_.on_recovery(w);
  }

 private:
  sim::Time warp(sim::Time t) {
    return timed_seen_++ >= warp_from_ ? t - skew_ : t;
  }

  obs::TelemetrySink& inner_;
  sim::Time skew_;
  std::size_t warp_from_;
  std::size_t timed_seen_ = 0;
};

void check_faults_off_silence(const harness::RunResult& result,
                              SeedReport& report) {
  if (!result.hangs().empty()) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "ParaStack reported %zu hang(s) on a faults-off run "
                  "(first at t=%.2fs)",
                  result.hangs().size(),
                  sim::to_seconds(result.hangs().front().detected_at));
    fail(report, "faults-off", buffer);
  }
}

/// A faults-off run with a recovery policy armed must never recover: no
/// kill happens, so the driver must finish in one attempt with zero
/// recovery overhead (the policy's mere presence is free on healthy runs —
/// team replication's SU multiplier is the policy's steady-state price and
/// is exempt).
void check_recovery_quiet(const harness::RunResult& result,
                          SeedReport& report) {
  if (!result.recovery.enabled) return;
  if (result.recovery.attempts_used != 1 || result.recovery.recovered ||
      result.recovery.gave_up || result.recovery.overhead_total != 0) {
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "recovery acted on a faults-off run (%d attempts, "
                  "recovered=%d, gave_up=%d, overhead=%.2fs)",
                  result.recovery.attempts_used,
                  result.recovery.recovered ? 1 : 0,
                  result.recovery.gave_up ? 1 : 0,
                  sim::to_seconds(result.recovery.overhead_total));
    fail(report, "recovery-quiet", buffer);
  }
}

/// Synthesize rank-aligned trace rounds from the scenario's seed, mixing
/// frozen OUT_MPI ranks, busy-waiters flipping through the Test family, and
/// ranks moving between MPI calls — the population the faulty-id and
/// slowdown-filter functions classify.
std::vector<std::vector<trace::StackSnapshot>> synthesize_rounds(
    const Scenario& scenario, util::Rng& rng, int rounds) {
  static constexpr const char* kMpiFuncs[] = {
      "MPI_Allreduce", "MPI_Recv", "MPI_Bcast", "MPI_Waitall", "MPI_Barrier"};
  const int n = scenario.nranks;
  // Per-rank behaviour class, fixed across rounds.
  std::vector<int> behaviour(static_cast<std::size_t>(n));
  for (auto& b : behaviour) {
    const double draw = rng.uniform();
    b = draw < 0.25 ? 0    // frozen OUT_MPI (looks faulty)
        : draw < 0.5 ? 1   // busy-wait: flips loop body <-> MPI_Test
        : draw < 0.75 ? 2  // moving: different MPI call each round
                      : 3; // parked in one MPI call
  }
  std::vector<std::size_t> parked_func(static_cast<std::size_t>(n));
  for (auto& f : parked_func) f = rng.uniform_int(std::uint64_t{5});

  std::vector<std::vector<trace::StackSnapshot>> out;
  for (int r = 0; r < rounds; ++r) {
    std::vector<trace::StackSnapshot> round(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& snap = round[static_cast<std::size_t>(i)];
      snap.rank = i;
      snap.when = (r + 1) * sim::kSecond;
      snap.frames = {"main", "solver_step"};
      switch (behaviour[static_cast<std::size_t>(i)]) {
        case 0:
          snap.in_mpi = false;
          break;
        case 1:
          if ((r + i) % 2 == 0) {
            snap.in_mpi = true;
            snap.innermost_mpi = "MPI_Test";
            snap.frames.push_back("MPI_Test");
          } else {
            snap.in_mpi = false;
          }
          break;
        case 2:
          snap.in_mpi = true;
          snap.innermost_mpi =
              kMpiFuncs[static_cast<std::size_t>((i + r) % 5)];
          snap.frames.push_back(std::string(snap.innermost_mpi));
          break;
        default:
          snap.in_mpi = true;
          snap.innermost_mpi = kMpiFuncs[parked_func[static_cast<std::size_t>(i)]];
          snap.frames.push_back(std::string(snap.innermost_mpi));
          break;
      }
    }
    out.push_back(std::move(round));
  }
  return out;
}

void check_rank_relabel(const Scenario& scenario, SeedReport& report) {
  util::Rng rng(scenario.run_seed ^ 0xface1e555eedULL);
  const auto rounds = synthesize_rounds(scenario, rng, 3);

  const std::vector<simmpi::Rank> faulty = core::identify_faulty_ranks(rounds);
  const bool transient = core::is_transient_slowdown(rounds[0], rounds[1]);

  // Random permutation: position j of the relabeled world holds the
  // process originally labeled perm[j], renamed to j.
  const std::size_t n = static_cast<std::size_t>(scenario.nranks);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_int(std::uint64_t{i})]);
  }

  std::vector<std::vector<trace::StackSnapshot>> relabeled;
  for (const auto& round : rounds) {
    std::vector<trace::StackSnapshot> r2(n);
    for (std::size_t j = 0; j < n; ++j) {
      r2[j] = round[perm[j]];
      r2[j].rank = static_cast<simmpi::Rank>(j);
    }
    relabeled.push_back(std::move(r2));
  }

  const auto faulty2 = core::identify_faulty_ranks(relabeled);
  const bool transient2 =
      core::is_transient_slowdown(relabeled[0], relabeled[1]);

  if (transient != transient2) {
    fail(report, "rank-relabel",
         "transient-slowdown verdict changed under a rank permutation");
  }
  // Expected faulty set after relabeling: the positions now holding an
  // originally-faulty rank.
  std::vector<simmpi::Rank> expected;
  for (std::size_t j = 0; j < n; ++j) {
    if (std::find(faulty.begin(), faulty.end(),
                  static_cast<simmpi::Rank>(perm[j])) != faulty.end()) {
      expected.push_back(static_cast<simmpi::Rank>(j));
    }
  }
  std::sort(expected.begin(), expected.end());
  std::vector<simmpi::Rank> got = faulty2;
  std::sort(got.begin(), got.end());
  if (got != expected) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "faulty set did not track the rank permutation "
                  "(%zu expected, %zu identified)",
                  expected.size(), got.size());
    fail(report, "rank-relabel", buffer);
  }
}

/// Drop the monitor-side lines from a journal, keeping every detector and
/// application event. The tree-vs-star oracle compares what remains: the
/// aggregation topology may change its own telemetry (latency, messages,
/// per-level events) but must never change what the detector sees or does.
std::string strip_monitor_lines(const std::string& journal) {
  std::string out;
  out.reserve(journal.size());
  std::size_t pos = 0;
  while (pos < journal.size()) {
    std::size_t end = journal.find('\n', pos);
    if (end == std::string::npos) end = journal.size() - 1;
    const std::string_view line(journal.data() + pos, end - pos);
    const bool monitor_line =
        line.rfind("{\"ev\":\"monitor_sample\"", 0) == 0 ||
        line.rfind("{\"ev\":\"monitor_level\"", 0) == 0;
    if (!monitor_line) {
      out.append(line);
      out.push_back('\n');
    }
    pos = end + 1;
  }
  return out;
}

std::string run_campaign_journal(const Scenario& scenario, int jobs,
                                 obs::perf::ProfileRegistry* perf) {
  harness::CampaignConfig campaign;
  campaign.base = to_run_config(scenario);
  campaign.runs = scenario.campaign_runs;
  campaign.seed0 = scenario.run_seed;
  campaign.jobs = jobs;
  std::ostringstream bytes;
  obs::JsonlJournal journal(bytes);
  campaign.base.telemetry = &journal;
  campaign.base.perf = perf;  // shared across trials: atomic, order-free
  // Clean vs erroneous dispatch mirrors the bench tools: the clean runner
  // refuses hang faults and the erroneous runner refuses fault-free bases.
  if (scenario.fault == faults::FaultType::kNone ||
      scenario.fault == faults::FaultType::kTransientSlowdown) {
    (void)harness::run_clean_campaign(campaign);
  } else {
    (void)harness::run_erroneous_campaign(campaign);
  }
  return std::move(bytes).str();
}

}  // namespace

SeedReport check_scenario(const Scenario& scenario,
                          const OracleOptions& options) {
  SeedReport report;
  report.scenario = scenario;

  // --- Base run: live journal + recording + stream invariants + probe ---
  harness::RunConfig config = to_run_config(scenario);
  std::ostringstream live_bytes;
  obs::JsonlJournal live_journal(live_bytes);
  obs::RecordingSink recording;
  InvariantSink invariants;
  obs::MultiSink fanout({&live_journal, &recording, &invariants});
  config.telemetry = &fanout;
  obs::perf::ProfileRegistry base_perf;
  config.perf = &base_perf;
  std::vector<std::string> probe_violations;
  config.post_run_probe = [&probe_violations](const simmpi::World& world,
                                              const harness::RunResult& r) {
    check_run_invariants(world, r, probe_violations);
  };
  const harness::RunResult base = harness::run_one(config);
  ++report.runs_executed;

  for (const auto& v : invariants.violations()) fail(report, "invariants", v);
  for (const auto& v : probe_violations) fail(report, "conservation", v);

  // --- Replay oracle: recorded stream reproduces the live journal ---
  {
    std::ostringstream replay_bytes;
    obs::JsonlJournal replay_journal(replay_bytes);
    recording.replay(replay_journal);
    if (const auto diff =
            first_divergence(live_bytes.str(), replay_bytes.str());
        !diff.empty()) {
      fail(report, "replay", diff);
    }
  }

  // --- Planted violation: prove the invariant alarm actually rings ---
  if (options.plant_clock_skew > 0) {
    InvariantSink planted;
    ClockWarpSink warp(planted, options.plant_clock_skew,
                       recording.size() / 2);
    recording.replay(warp);
    if (planted.clean()) {
      // The alarm itself is broken: warping the clock must always trip the
      // monotonicity invariant.
      fail(report, "planted-clock",
           "clock warp injected but the invariant layer stayed silent");
    } else {
      // Surface the caught violation as a failure so the full
      // catch -> shrink -> repro loop runs on it (that is what --plant is
      // for: proving the loop end to end on a known bug).
      fail(report, "planted-clock", planted.violations().front());
    }
  }

  // --- Determinism oracle: same config, byte-identical journal ---
  // Rides along: the perf-counter snapshot (counters + high-waters, timers
  // excluded by construction) must also match the base run exactly — the
  // counters count simulated facts, so they are pure functions of the seed.
  {
    harness::RunConfig again = to_run_config(scenario);
    std::ostringstream rerun_bytes;
    obs::JsonlJournal rerun_journal(rerun_bytes);
    again.telemetry = &rerun_journal;
    obs::perf::ProfileRegistry rerun_perf;
    again.perf = &rerun_perf;
    (void)harness::run_one(again);
    ++report.runs_executed;
    if (const auto diff = first_divergence(live_bytes.str(), rerun_bytes.str());
        !diff.empty()) {
      fail(report, "determinism", diff);
    }
    if (const auto diff = snapshot_divergence(base_perf.counter_snapshot(),
                                              rerun_perf.counter_snapshot());
        !diff.empty()) {
      fail(report, "perf-determinism", diff);
    }
  }

  // --- Faults-off oracle ---
  // Out of scope for model-drift workloads (any profile phase with
  // `decays`, i.e. HPL's shrinking trailing matrix): the model trains on
  // the compute-heavy prefix, so the communication-heavy tail legitimately
  // reads as suspicious — the §6 limitation the repo demonstrates in
  // bench_limitation_load_imbalance, not a detector defect the fuzzer
  // should flag.
  const auto profile =
      workloads::make_profile(scenario.bench, scenario.input, scenario.nranks);
  bool model_drift = false;
  for (const auto& phase : profile->phases) {
    if (phase.decays) model_drift = true;
  }
  if (!model_drift) {
    if (scenario.any_fault()) {
      harness::RunConfig quiet = to_run_config(scenario);
      quiet.fault = faults::FaultType::kNone;
      quiet.tool_faults = faults::ToolFaultPlan{};
      const harness::RunResult clean = harness::run_one(quiet);
      ++report.runs_executed;
      check_faults_off_silence(clean, report);
      check_recovery_quiet(clean, report);
    } else {
      // The base run already is the faults-off run.
      check_faults_off_silence(base, report);
      check_recovery_quiet(base, report);
    }
  }

  // --- Tree-vs-star oracle ---
  // With tool faults off, the aggregation topology is pure plumbing: the
  // k-ary tree may reshape the monitor-side telemetry, but the detector
  // stream (samples, streaks, verifications, hangs) must match the flat
  // star byte for byte. Tool faults are excluded because loss/delay draws
  // are per-hop — a different topology legitimately consumes a different
  // tool-RNG stream there.
  if (scenario.use_monitor_network && scenario.tree_fanout > 0 &&
      !scenario.tool_faults_armed()) {
    Scenario star = scenario;
    star.tree_fanout = 0;
    harness::RunConfig star_config = to_run_config(star);
    std::ostringstream star_bytes;
    obs::JsonlJournal star_journal(star_bytes);
    star_config.telemetry = &star_journal;
    (void)harness::run_one(star_config);
    ++report.runs_executed;
    if (const auto diff =
            first_divergence(strip_monitor_lines(live_bytes.str()),
                             strip_monitor_lines(star_bytes.str()));
        !diff.empty()) {
      fail(report, "tree-vs-star", diff + " (after stripping monitor lines)");
    }
  }

  // --- Jobs-differential oracle ---
  // The perf registries ride along here too: one shared registry per
  // campaign, so the jobs=1 and jobs=N totals must agree exactly (atomic
  // sums and maxes are order-independent).
  if (options.campaign_differential && options.jobs > 1) {
    obs::perf::ProfileRegistry serial_perf;
    obs::perf::ProfileRegistry parallel_perf;
    const std::string serial = run_campaign_journal(scenario, 1, &serial_perf);
    const std::string parallel =
        run_campaign_journal(scenario, options.jobs, &parallel_perf);
    report.runs_executed += 2 * scenario.campaign_runs;
    if (const auto diff = first_divergence(serial, parallel); !diff.empty()) {
      fail(report, "jobs-differential", diff);
    }
    if (const auto diff = snapshot_divergence(serial_perf.counter_snapshot(),
                                              parallel_perf.counter_snapshot());
        !diff.empty()) {
      fail(report, "perf-jobs", diff);
    }
  }

  // --- Fleet-identity oracle ---
  // A single-tenant fleet is the legacy single-job path wearing a different
  // entry point: its combined journal must reproduce the base run's bytes
  // exactly — no fleet_admit lines, no reordering, no RNG perturbation.
  {
    fleet::FleetConfig single;
    single.base = to_run_config(scenario);
    single.arrivals.jobs = 1;
    std::ostringstream fleet_bytes;
    obs::JsonlJournal fleet_journal(fleet_bytes);
    single.telemetry = &fleet_journal;
    (void)fleet::run_fleet(single);
    ++report.runs_executed;
    if (const auto diff = first_divergence(live_bytes.str(), fleet_bytes.str());
        !diff.empty()) {
      fail(report, "fleet-identity", diff);
    }
  }

  // --- Tenant-isolation oracle ---
  // A tenant's own journal stream must be a pure function of its arrival —
  // adding an idle co-tenant at the back of the fleet must not move a byte
  // of any earlier tenant's stream (arrivals are tenant-indexed hashes, so
  // this holds by construction; the oracle keeps it that way).
  if (scenario.fleet_jobs > 1) {
    const auto tenant_journals = [&](int tenants) {
      fleet::FleetConfig fleet_config;
      fleet_config.base = to_run_config(scenario);
      fleet_config.arrivals.jobs = tenants;
      fleet_config.arrivals.model = scenario.fleet_arrival == 1
                                        ? fleet::ArrivalModel::kTrace
                                        : fleet::ArrivalModel::kPoisson;
      fleet_config.jobs = options.jobs;
      fleet_config.capture_tenant_journals = true;
      const fleet::FleetResult result = fleet::run_fleet(fleet_config);
      report.runs_executed += tenants;
      return result.tenant_journals;
    };
    const auto fleet_run = tenant_journals(scenario.fleet_jobs);
    const auto grown = tenant_journals(scenario.fleet_jobs + 1);
    for (std::size_t t = 0; t < fleet_run.size(); ++t) {
      if (const auto diff = first_divergence(fleet_run[t], grown[t]);
          !diff.empty()) {
        char buffer[160];
        std::snprintf(buffer, sizeof buffer,
                      "tenant %zu's journal moved when a co-tenant joined: %s",
                      t, diff.c_str());
        fail(report, "fleet-isolation", buffer);
        break;
      }
    }
  }

  // --- Rank-relabel metamorphic oracle (pure functions, no simulation) ---
  check_rank_relabel(scenario, report);

  return report;
}

}  // namespace parastack::check
