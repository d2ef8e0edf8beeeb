#include "core/monitor_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/detector.hpp"
#include "faults/injector.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace parastack::core {
namespace {

std::shared_ptr<const workloads::BenchmarkProfile> small_profile() {
  auto profile = std::make_shared<workloads::BenchmarkProfile>();
  profile->iterations = 4000;
  profile->reference_ranks = 48;
  profile->setup_time = sim::from_millis(100);
  profile->phases = {
      {"w", sim::from_millis(25), 0.12,
       workloads::CommPattern::kHaloBlocking, 64 * 1024},
      {"n", sim::from_millis(5), 0.1, workloads::CommPattern::kAllreduce, 16},
  };
  return profile;
}

simmpi::WorldConfig config48(std::uint64_t seed = 21) {
  simmpi::WorldConfig config;
  config.nranks = 48;
  config.platform = sim::Platform::tianhe2();  // 2 nodes
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

TEST(MonitorNetwork, OneMonitorPerNode) {
  simmpi::World world(config48(), workloads::make_factory(small_profile()));
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  EXPECT_EQ(network.monitor_count(), 2);
}

TEST(MonitorNetwork, ActiveMonitorsAreDistinctHostingNodes) {
  simmpi::World world(config48(), workloads::make_factory(small_profile()));
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  EXPECT_EQ(network.active_monitors_for({0, 1, 2}), 1);       // all node 0
  EXPECT_EQ(network.active_monitors_for({0, 30}), 2);         // both nodes
  EXPECT_EQ(network.active_monitors_for({25, 26, 47}), 1);    // all node 1
}

TEST(MonitorNetwork, MeasurementMatchesDirectInspection) {
  simmpi::World world(config48(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(5 * sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  const std::vector<simmpi::Rank> set = {1, 7, 13, 29, 41};
  // Direct ground truth (states do not change while no events run).
  int out = 0;
  for (const auto r : set) {
    if (!world.rank(r).in_mpi()) ++out;
  }
  const auto measurement = network.measure(set);
  EXPECT_DOUBLE_EQ(measurement.scrout,
                   static_cast<double>(out) / static_cast<double>(set.size()));
  EXPECT_EQ(measurement.ranks_traced, 5);
  EXPECT_EQ(measurement.active_monitors, 2);
  EXPECT_GT(measurement.aggregation_latency, 0);
}

TEST(MonitorNetwork, TrafficIsBoundedByActiveMonitors) {
  simmpi::World world(config48(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  network.measure({0, 1, 2});  // one active monitor: no messages needed
  EXPECT_EQ(network.messages_sent(), 0u);
  network.measure({0, 30});  // two active monitors: one partial count
  EXPECT_EQ(network.messages_sent(), 1u);
  EXPECT_EQ(network.bytes_sent(), 8u);
  EXPECT_EQ(network.samples(), 2u);
}

TEST(MonitorNetwork, DetectorBackendProducesSameVerdicts) {
  // Same seed, with and without the monitor-network backend: identical
  // detection outcome (the backend changes accounting, not observations).
  faults::FaultPlan plan;
  plan.type = faults::FaultType::kComputeHang;
  plan.victim = 17;
  plan.trigger_time = 40 * sim::kSecond;

  sim::Time detected_direct = -1;
  sim::Time detected_network = -1;
  for (int variant = 0; variant < 2; ++variant) {
    faults::FaultInjector injector(plan);
    simmpi::World world(config48(),
                        injector.wrap(workloads::make_factory(small_profile())));
    injector.arm(world);
    trace::StackInspector::Config icfg;
    icfg.seed = 99;
    trace::StackInspector inspector(world, icfg);
    DetectorConfig dcfg;
    dcfg.seed = 1234;
    HangDetector detector(world, inspector, dcfg);
    MonitorNetwork network(world, inspector);
    if (variant == 1) detector.use_monitor_network(&network);
    world.start();
    detector.start();
    auto& engine = world.engine();
    while (!detector.hang_reported() && engine.now() < 4 * sim::kMinute &&
           engine.step()) {
    }
    ASSERT_TRUE(detector.hang_reported());
    (variant == 0 ? detected_direct : detected_network) =
        detector.hang_reports().front().detected_at;
  }
  EXPECT_EQ(detected_direct, detected_network);
}

TEST(MonitorNetworkDeath, EmptySetRejected) {
  simmpi::World world(config48(), workloads::make_factory(small_profile()));
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  EXPECT_DEATH((void)network.measure({}), "empty");
}

// --- Accounting invariants (healthy path) ----------------------------------

simmpi::WorldConfig config96(std::uint64_t seed = 33) {
  simmpi::WorldConfig config;
  config.nranks = 96;
  config.platform = sim::Platform::tianhe2();  // 24 cores/node -> 4 nodes
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

TEST(MonitorNetwork, AccountingInvariantsAcrossMultiNodeSets) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  ASSERT_EQ(network.monitor_count(), 4);

  // Each sample sends (active monitors - 1) partial counts of 8 bytes and
  // traces exactly the set, regardless of which node hosts the lead.
  network.measure({0});                  // 1 active (lead node): 0 messages
  network.measure({0, 24});              // 2 active: 1 message
  network.measure({0, 24, 48, 72});      // 4 active: 3 messages
  network.measure({25, 49});             // 2 active, lead node absent: 1
  EXPECT_EQ(network.messages_sent(), 0u + 1u + 3u + 1u);
  EXPECT_EQ(network.bytes_sent(), 8u * 5u);
  EXPECT_EQ(network.ranks_traced_total(), 1u + 2u + 4u + 2u);
  EXPECT_EQ(network.samples(), 4u);
  EXPECT_EQ(network.lead_monitor(), 0);
  EXPECT_FALSE(network.tool_faults_active());
}

TEST(MonitorNetwork, InactiveToolFaultPlanKeepsHealthyPath) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  network.set_tool_faults(faults::ToolFaultPlan{});  // all defaults: inert
  EXPECT_FALSE(network.tool_faults_active());
  network.measure({0, 24});
  EXPECT_EQ(network.messages_sent(), 1u);
  EXPECT_EQ(network.monitor_crashes(), 0u);
}

// --- Tool-fault behaviors --------------------------------------------------

TEST(MonitorNetworkFaults, TotalLossCoversOnlyTheLeadNode) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  faults::ToolFaultPlan plan;
  plan.loss_probability = 1.0;
  plan.max_retries = 2;
  plan.seed = 7;
  network.set_tool_faults(plan);
  ASSERT_TRUE(network.tool_faults_active());

  // Lead-on-victim-node edge case: ranks 0 and 1 live on the lead's node,
  // so their counts never cross the network and survive total loss.
  const auto m = network.measure({0, 1, 30, 60});
  EXPECT_EQ(m.ranks_traced, 4);  // every alive monitor still traces
  EXPECT_EQ(m.partials_missing, 2);
  EXPECT_DOUBLE_EQ(m.coverage, 0.5);
  EXPECT_FALSE(m.degraded);  // the lead's own ranks keep it sighted
  EXPECT_EQ(m.retries, 2 * 2);  // both senders exhaust max_retries
  // Per sender: 1 original + 2 retries = 3 messages.
  EXPECT_EQ(network.messages_sent(), 6u);
  EXPECT_EQ(network.partials_lost(), 2u);
  EXPECT_EQ(network.retransmissions(), 4u);
  // Timeout + backoff penalties surface in the aggregation latency.
  EXPECT_GT(m.aggregation_latency,
            plan.sample_timeout * 2 + plan.retry_backoff);
}

TEST(MonitorNetworkFaults, ScheduledCrashSilencesItsNode) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  faults::ToolFaultPlan plan;
  plan.monitor_crashes.push_back({.monitor = 1, .at = sim::kSecond});
  network.set_tool_faults(plan);

  const auto m = network.measure({0, 30, 60});  // nodes 0, 1, 2
  EXPECT_EQ(network.monitor_crashes(), 1u);
  EXPECT_FALSE(network.monitor_alive(1));
  EXPECT_TRUE(network.monitor_alive(0));
  EXPECT_EQ(m.partials_missing, 1);       // node 1's count never comes
  EXPECT_EQ(m.ranks_traced, 2);           // dead monitors trace nothing
  EXPECT_NEAR(m.coverage, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(network.lead_monitor(), 0);   // non-lead crash: no failover
  EXPECT_EQ(network.lead_failovers(), 0u);
}

TEST(MonitorNetworkFaults, DeadNodeOnlySetIsBlind) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  faults::ToolFaultPlan plan;
  plan.monitor_crashes.push_back({.monitor = 1, .at = sim::kSecond});
  network.set_tool_faults(plan);

  const auto m = network.measure({30, 31, 40});  // all on dead node 1
  EXPECT_TRUE(m.degraded);
  EXPECT_DOUBLE_EQ(m.coverage, 0.0);
  EXPECT_EQ(m.ranks_traced, 0);
  EXPECT_DOUBLE_EQ(m.scrout, 0.0);
}

TEST(MonitorNetworkFaults, LeadCrashFailsOverToLowestSurvivor) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  faults::ToolFaultPlan plan;
  plan.lead_crash_at = sim::kSecond;
  plan.reregistration_latency = sim::from_millis(250);
  network.set_tool_faults(plan);

  const auto first = network.measure({0, 30, 60});
  EXPECT_EQ(network.lead_monitor(), 1);  // lowest surviving id takes over
  EXPECT_EQ(network.lead_failovers(), 1u);
  EXPECT_EQ(network.monitor_crashes(), 1u);
  // The re-registration stall is charged to the first post-failover sample.
  EXPECT_GE(first.aggregation_latency, plan.reregistration_latency);
  const auto second = network.measure({0, 30, 60});
  EXPECT_LT(second.aggregation_latency, plan.reregistration_latency);
  // Node 0's monitor is dead; its ranks are uncovered from now on.
  EXPECT_EQ(second.partials_missing, 1);
  EXPECT_NEAR(second.coverage, 2.0 / 3.0, 1e-12);
}

TEST(MonitorNetworkFaults, RandomCrashVictimsAreNonLeadAndSeedStable) {
  for (int repeat = 0; repeat < 2; ++repeat) {
    simmpi::World world(config96(), workloads::make_factory(small_profile()));
    world.start();
    world.engine().run_until(2 * sim::kSecond);
    trace::StackInspector inspector(world);
    MonitorNetwork network(world, inspector);
    faults::ToolFaultPlan plan;
    plan.monitor_crashes.push_back({.monitor = -1, .at = sim::kSecond});
    plan.seed = 1234;
    network.set_tool_faults(plan);
    network.measure({0, 30, 60, 80});
    EXPECT_EQ(network.monitor_crashes(), 1u);
    EXPECT_TRUE(network.monitor_alive(0));  // the lead is never the victim
    EXPECT_EQ(network.lead_failovers(), 0u);
  }
}

TEST(MonitorNetworkFaults, LossSequenceIsAPureFunctionOfThePlanSeed) {
  std::vector<double> coverages[2];
  std::uint64_t messages[2] = {0, 0};
  for (int repeat = 0; repeat < 2; ++repeat) {
    simmpi::World world(config96(), workloads::make_factory(small_profile()));
    world.start();
    world.engine().run_until(sim::kSecond);
    trace::StackInspector inspector(world);
    MonitorNetwork network(world, inspector);
    faults::ToolFaultPlan plan;
    plan.loss_probability = 0.4;
    plan.max_retries = 1;
    plan.seed = 99;
    network.set_tool_faults(plan);
    for (int i = 0; i < 20; ++i) {
      coverages[repeat].push_back(network.measure({0, 24, 48, 72}).coverage);
    }
    messages[repeat] = network.messages_sent();
  }
  EXPECT_EQ(coverages[0], coverages[1]);
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_GT(messages[0], 3u * 20u);  // some loss actually happened
}

// --- Sample plans ----------------------------------------------------------

/// A 1024-rank machine that is only arithmetic: 16 ranks per node, a
/// rank's MPI state a hash of rank and sample epoch. Every network over it
/// observes the same stream, whatever it sampled before.
class GridSubstrate final : public MonitorSubstrate {
 public:
  int nranks() const override { return 1024; }
  int nnodes() const override { return 64; }
  int node_of(simmpi::Rank rank) const override {
    return static_cast<int>(rank) / 16;
  }
  sim::Engine& engine() override { return engine_; }
  sim::Time network_latency() const override { return 5 * sim::kMicrosecond; }
  bool trace_out_mpi(simmpi::Rank rank) override {
    std::uint64_t state = (static_cast<std::uint64_t>(rank) << 24) ^ epoch_;
    return util::splitmix64(state) < UINT64_C(0x4CCCCCCCCCCCCCCC);  // 0.3
  }
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }

 private:
  std::uint64_t epoch_ = 0;
  sim::Engine engine_;
};

void arm_tree(MonitorNetwork& network) {
  TopologyConfig config;
  config.fanout = 3;
  config.seed = 0x51;
  // Tight enough that the wider levels hit it.
  config.level_deadline = 8 * sim::kMicrosecond;
  network.set_topology(config);
}

void expect_same(const MonitorNetwork::Measurement& a,
                 const MonitorNetwork::Measurement& b) {
  EXPECT_EQ(a.scrout, b.scrout);
  EXPECT_EQ(a.ranks_traced, b.ranks_traced);
  EXPECT_EQ(a.active_monitors, b.active_monitors);
  EXPECT_EQ(a.aggregation_latency, b.aggregation_latency);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.root_fan_in, b.root_fan_in);
  EXPECT_EQ(a.partials_missing, b.partials_missing);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(MonitorNetworkPlans, RefilledVectorMeasuresLikeAFreshNetwork) {
  // A sample's structure follows the set's contents, not where the set
  // lives: one vector refilled in place with ranks on other nodes must
  // measure exactly like a network that never saw the first contents.
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "star");
    GridSubstrate substrate;
    MonitorNetwork reused(substrate);
    MonitorNetwork fresh(substrate);
    if (tree) {
      arm_tree(reused);
      arm_tree(fresh);
    }
    std::vector<simmpi::Rank> set = {0, 1, 17, 300, 301, 640};
    (void)reused.measure(set);
    const std::uint64_t first_messages = reused.messages_sent();
    const simmpi::Rank* storage = set.data();
    set.assign({48, 500, 501, 777, 900, 1023});
    ASSERT_EQ(set.data(), storage);  // same buffer, same size

    expect_same(reused.measure(set), fresh.measure(set));
    EXPECT_EQ(reused.messages_sent() - first_messages, fresh.messages_sent());
    EXPECT_EQ(reused.active_monitors_for(set), 5);
    // Single elements rewritten in place: one rank moves within node 62,
    // then one leaves the doubly used node 31 for node 0.
    set[5] = 1000;
    EXPECT_EQ(reused.active_monitors_for(set), 5);
    set[1] = 2;
    EXPECT_EQ(reused.active_monitors_for(set), 6);
    MonitorNetwork third(substrate);
    if (tree) arm_tree(third);
    expect_same(reused.measure(set), third.measure(set));
  }
}

TEST(MonitorNetworkPlans, RotatedSetsMatchSingleSetNetworks) {
  // The runner shares one network across every ParaStack detector of a
  // bank, so more sets than one detector's two take turns on it. Each
  // sample must equal that of a network that only ever measures its set,
  // and the shared totals must be the sums of theirs.
  const std::vector<simmpi::Rank> sets[3] = {
      {0, 16, 32, 48, 64, 500, 1020},
      {5, 6, 7, 400, 401, 402, 403, 900},
      {17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 700, 710, 720}};
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "tree" : "star");
    GridSubstrate substrate;
    MonitorNetwork shared(substrate);
    std::vector<std::unique_ptr<MonitorNetwork>> single;
    for (int i = 0; i < 3; ++i) {
      single.push_back(std::make_unique<MonitorNetwork>(substrate));
    }
    if (tree) {
      arm_tree(shared);
      for (auto& network : single) arm_tree(*network);
    }
    for (int round = 0; round < 6; ++round) {
      substrate.set_epoch(static_cast<std::uint64_t>(round));
      for (int i = 0; i < 3; ++i) {
        expect_same(shared.measure(sets[i]), single[i]->measure(sets[i]));
      }
    }
    std::uint64_t messages = 0;
    std::uint64_t root_messages = 0;
    std::uint64_t hops = 0;
    std::uint64_t traced = 0;
    std::uint64_t deadline_hits = 0;
    int fan_in = 0;
    for (const auto& network : single) {
      messages += network->messages_sent();
      root_messages += network->root_messages();
      hops += network->tree_hops();
      traced += network->ranks_traced_total();
      deadline_hits += network->level_deadline_hits();
      fan_in = std::max(fan_in, network->max_fan_in());
    }
    EXPECT_EQ(shared.messages_sent(), messages);
    EXPECT_EQ(shared.root_messages(), root_messages);
    EXPECT_EQ(shared.tree_hops(), hops);
    EXPECT_EQ(shared.ranks_traced_total(), traced);
    EXPECT_EQ(shared.level_deadline_hits(), deadline_hits);
    EXPECT_EQ(shared.max_fan_in(), fan_in);
    if (tree) {
      EXPECT_GT(deadline_hits, 0u);
    }
  }
}

TEST(MonitorNetworkFaultsDeath, ArmingAfterSamplingRejected) {
  simmpi::World world(config96(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  MonitorNetwork network(world, inspector);
  network.measure({0});
  faults::ToolFaultPlan plan;
  plan.loss_probability = 0.5;
  EXPECT_DEATH(network.set_tool_faults(plan), "before the first sample");
}

}  // namespace
}  // namespace parastack::core
