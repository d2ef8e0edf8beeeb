// Resilience coverage for the k-ary aggregation tree: interior-monitor
// deaths must promote a deterministic survivor and re-parent its subtree,
// a dead root must fail over to its promoted child (the tree
// generalization of lead failover), cascades must keep the survivors
// aggregating, and the compatibility default — fan-out "infinity", the
// flat star — must stay byte-identical to a run that never heard of
// trees. Exercised both directly against MonitorNetwork and end-to-end
// through run_one()'s journal.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/monitor_network.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace parastack {
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

/// 192 ranks on Tianhe-2 (24 cores/node) = 8 monitors. With fan-out 2 and
/// the identity placement (seed 0) the tree is the complete binary tree:
/// children(0)={1,2}, children(1)={3,4}, children(2)={5,6}, children(3)={7}.
simmpi::WorldConfig config192(std::uint64_t seed = 21) {
  simmpi::WorldConfig config;
  config.nranks = 192;
  config.platform = sim::Platform::tianhe2();
  config.seed = seed;
  config.background_slowdowns = false;
  return config;
}

core::TopologyConfig fanout2() {
  core::TopologyConfig config;
  config.fanout = 2;
  return config;
}

/// One rank per node: every monitor is active for this set.
const std::vector<simmpi::Rank> kAllNodesSet = {0,  24,  48,  72,
                                                96, 120, 144, 168};

TEST(TreeAggregation, HealthyGatherClimbsTheTree) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  ASSERT_TRUE(network.tree_mode());
  ASSERT_EQ(network.lead_monitor(), 0);

  const auto m = network.measure(kAllNodesSet);
  EXPECT_EQ(m.ranks_traced, 8);
  EXPECT_EQ(m.active_monitors, 8);
  // Every carrier but the root forwards once: 7 hops, but the root only
  // ever hears from its own two children.
  EXPECT_EQ(network.messages_sent(), 7u);
  EXPECT_EQ(network.tree_hops(), 7u);
  EXPECT_EQ(m.root_fan_in, 2);
  EXPECT_EQ(network.root_messages(), 2u);
  EXPECT_EQ(m.levels, 3);  // node 7 sits three hops below the root
  EXPECT_EQ(network.max_fan_in(), 2);
  EXPECT_GT(m.aggregation_latency, 0);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
  EXPECT_FALSE(m.degraded);
}

TEST(TreeAggregation, SingleNodeSetNeverLeavesItsMonitor) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());

  // All ranks on node 7: the partial still climbs 7 -> 3 -> 1 -> 0.
  const auto deep = network.measure({168, 169, 170});
  EXPECT_EQ(deep.active_monitors, 1);
  EXPECT_EQ(network.tree_hops(), 3u);
  EXPECT_EQ(deep.root_fan_in, 1);
  // All ranks on the root's own node: nothing crosses the network.
  const auto local = network.measure({0, 1, 2});
  EXPECT_EQ(local.active_monitors, 1);
  EXPECT_EQ(network.tree_hops(), 3u);  // unchanged
  EXPECT_EQ(local.root_fan_in, 0);
}

TEST(TreeFailover, InteriorCrashPromotesLowestChildAndAdoptsSiblings) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  faults::ToolFaultPlan plan;
  plan.monitor_crashes.push_back({.monitor = 1, .at = sim::kSecond});
  plan.reregistration_latency = sim::from_millis(250);
  network.set_tool_faults(plan);

  const auto m = network.measure(kAllNodesSet);
  EXPECT_EQ(network.monitor_crashes(), 1u);
  EXPECT_EQ(network.subtree_failovers(), 1u);
  EXPECT_EQ(network.lead_failovers(), 0u);  // the root never noticed
  EXPECT_EQ(network.lead_monitor(), 0);

  // Node 3 (lowest surviving child) took node 1's place; node 4 re-parents
  // under it, node 7 stays where it was.
  const core::MonitorTopology* tree = network.topology();
  ASSERT_NE(tree, nullptr);
  EXPECT_TRUE(tree->removed(1));
  EXPECT_EQ(tree->parent(3), 0);
  EXPECT_EQ(tree->parent(4), 3);
  EXPECT_EQ(tree->parent(7), 3);
  EXPECT_EQ(tree->level(3), 1);
  EXPECT_EQ(tree->level(4), 2);

  // Node 1's ranks are uncovered; everyone else still aggregates.
  EXPECT_EQ(m.partials_missing, 1);
  EXPECT_NEAR(m.coverage, 7.0 / 8.0, 1e-12);
  EXPECT_FALSE(m.degraded);
  EXPECT_EQ(m.levels, 2);  // the promotion flattened the deep branch
  // The subtree re-registration stall is charged to this first sample only.
  EXPECT_GE(m.aggregation_latency, plan.reregistration_latency);
  const auto second = network.measure(kAllNodesSet);
  EXPECT_LT(second.aggregation_latency, plan.reregistration_latency);
}

TEST(TreeFailover, RootCrashFailsOverToPromotedChild) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  faults::ToolFaultPlan plan;
  plan.lead_crash_at = sim::kSecond;
  plan.reregistration_latency = sim::from_millis(250);
  network.set_tool_faults(plan);

  const auto m = network.measure(kAllNodesSet);
  // A dead root is a lead failover, not a subtree failover: its lowest
  // child is the new root and adopts the other branch.
  EXPECT_EQ(network.lead_failovers(), 1u);
  EXPECT_EQ(network.subtree_failovers(), 0u);
  EXPECT_EQ(network.lead_monitor(), 1);
  const core::MonitorTopology* tree = network.topology();
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->root(), 1);
  EXPECT_EQ(tree->parent(2), 1);
  EXPECT_EQ(m.partials_missing, 1);  // the old root's ranks went dark
  EXPECT_NEAR(m.coverage, 7.0 / 8.0, 1e-12);
  EXPECT_GE(m.aggregation_latency, plan.reregistration_latency);
}

TEST(TreeFailover, CascadeInTheSameWindowKeepsSurvivorsAggregating) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(2 * sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.set_topology(fanout2());
  faults::ToolFaultPlan plan;
  // Node 1 dies, node 3 is promoted into its place — then dies too before
  // the next sample. Two independent promotions, zero lead failovers.
  plan.monitor_crashes.push_back({.monitor = 1, .at = sim::kSecond});
  plan.monitor_crashes.push_back({.monitor = 3, .at = sim::kSecond});
  network.set_tool_faults(plan);

  const auto m = network.measure(kAllNodesSet);
  EXPECT_EQ(network.monitor_crashes(), 2u);
  EXPECT_EQ(network.subtree_failovers(), 2u);
  EXPECT_EQ(network.lead_failovers(), 0u);
  EXPECT_EQ(network.lead_monitor(), 0);
  const core::MonitorTopology* tree = network.topology();
  ASSERT_NE(tree, nullptr);
  // Second promotion: node 4 replaces node 3 and inherits node 7.
  EXPECT_EQ(tree->parent(4), 0);
  EXPECT_EQ(tree->parent(7), 4);
  EXPECT_EQ(m.partials_missing, 2);
  EXPECT_NEAR(m.coverage, 6.0 / 8.0, 1e-12);
  EXPECT_FALSE(m.degraded);
}

TEST(TreeFailover, StarConfigIsIgnoredByTheNetwork) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  core::TopologyConfig star;  // fanout 0 = "infinite" = the flat star
  network.set_topology(star);
  EXPECT_FALSE(network.tree_mode());
  EXPECT_EQ(network.topology(), nullptr);
}

TEST(TreeFailoverDeath, ArmingAfterSamplingRejected) {
  simmpi::World world(config192(), workloads::make_factory(small_profile()));
  world.start();
  world.engine().run_until(sim::kSecond);
  trace::StackInspector inspector(world);
  core::MonitorNetwork network(world, inspector);
  network.measure({0});
  EXPECT_DEATH(network.set_topology(fanout2()), "before the first sample");
}

// --- Draw-order pin across crash-time re-ordering -------------------------

/// A machine that is only arithmetic (node_of is a division, a rank's MPI
/// state a hash of rank and sample epoch) over a clock the test advances,
/// so crashes land mid-run at exact instants.
class PinSubstrate final : public core::MonitorSubstrate {
 public:
  int nranks() const override { return 4096; }
  int nnodes() const override { return 256; }
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

void mix(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {  // FNV-1a, one byte at a time
    digest ^= (value >> (8 * byte)) & 0xFF;
    digest *= UINT64_C(0x100000001B3);
  }
}

TEST(TreeFailover, LossyCrashRunKeepsItsDrawOrder) {
  // Every hop's loss/retry/delay draw follows the carrier gather order
  // (deepest level first, ascending id within a level). An interior crash
  // and a root crash re-level whole subtrees mid-run; the digest of every
  // sample pins the order the draws happen in before and after each
  // re-ordering. The constant was recorded with the per-sample sort that
  // the topology's stored gather order replaced.
  PinSubstrate substrate;
  core::MonitorNetwork network(substrate);
  core::TopologyConfig topology;
  topology.fanout = 4;
  topology.seed = 0x5EED;
  network.set_topology(topology);
  const core::MonitorTopology* tree = network.topology();
  ASSERT_NE(tree, nullptr);
  const int interior = tree->children(tree->root()).front();
  ASSERT_FALSE(tree->children(interior).empty());

  faults::ToolFaultPlan plan;
  plan.loss_probability = 0.08;
  plan.delay_mean = sim::from_millis(2);
  plan.monitor_crashes.push_back(
      {.monitor = interior, .at = 70 * sim::kSecond});
  plan.lead_crash_at = 140 * sim::kSecond;
  plan.seed = 0xC0FFEE;
  network.set_tool_faults(plan);

  util::Rng pick(0xFACADE);
  std::uint64_t digest = UINT64_C(0xCBF29CE484222325);
  std::vector<simmpi::Rank> set;
  for (int sample = 0; sample < 240; ++sample) {
    substrate.engine().run_until(static_cast<sim::Time>(sample + 1) *
                                 sim::kSecond);
    substrate.set_epoch(static_cast<std::uint64_t>(sample));
    set.clear();
    for (int i = 0; i < 96; ++i) {
      set.push_back(static_cast<simmpi::Rank>(pick.uniform_int(4096)));
    }
    const auto m = network.measure(set);
    mix(digest, std::bit_cast<std::uint64_t>(m.scrout));
    mix(digest, std::bit_cast<std::uint64_t>(m.coverage));
    mix(digest, static_cast<std::uint64_t>(m.retries));
    mix(digest, static_cast<std::uint64_t>(m.partials_missing));
    mix(digest, static_cast<std::uint64_t>(m.aggregation_latency));
    mix(digest, static_cast<std::uint64_t>(m.levels));
    mix(digest, static_cast<std::uint64_t>(m.root_fan_in));
  }
  EXPECT_EQ(network.subtree_failovers(), 1u);
  EXPECT_EQ(network.lead_failovers(), 1u);
  EXPECT_GT(network.retransmissions(), 0u);
  EXPECT_GT(network.partials_lost(), 0u);
  EXPECT_EQ(digest, UINT64_C(0xB62BCE2EA625D58C)) << std::hex << digest;
}

/// Two fixed sets of 48 ranks, sampled alternately. Both hold ranks on the
/// lead's node 0 (ranks 3 and 7) and on node 5 (ranks 80 and 81).
std::vector<simmpi::Rank> alternating_set(int which) {
  util::Rng pick(which == 0 ? 0xA11CE : 0xB0B);
  std::vector<simmpi::Rank> set = {which == 0 ? 3 : 7, which == 0 ? 80 : 81};
  while (set.size() < 48) {
    set.push_back(static_cast<simmpi::Rank>(pick.uniform_int(4096)));
  }
  return set;
}

/// 200 one-second samples alternating between the two sets, digesting
/// every measurement and the network's totals. Crashes are scheduled at
/// half-second instants, so each lands between two samples of the same
/// set and the set's next sample must see the new shape.
std::uint64_t alternating_lossy_run(core::MonitorNetwork& network,
                                    PinSubstrate& substrate) {
  const std::vector<simmpi::Rank> sets[2] = {alternating_set(0),
                                             alternating_set(1)};
  std::uint64_t digest = UINT64_C(0xCBF29CE484222325);
  for (int sample = 0; sample < 200; ++sample) {
    substrate.engine().run_until(static_cast<sim::Time>(sample + 1) *
                                 sim::kSecond);
    substrate.set_epoch(static_cast<std::uint64_t>(sample));
    const auto m = network.measure(sets[sample % 2]);
    mix(digest, std::bit_cast<std::uint64_t>(m.scrout));
    mix(digest, std::bit_cast<std::uint64_t>(m.coverage));
    mix(digest, static_cast<std::uint64_t>(m.retries));
    mix(digest, static_cast<std::uint64_t>(m.partials_missing));
    mix(digest, static_cast<std::uint64_t>(m.aggregation_latency));
    mix(digest, static_cast<std::uint64_t>(m.ranks_traced));
    mix(digest, static_cast<std::uint64_t>(m.levels));
    mix(digest, static_cast<std::uint64_t>(m.root_fan_in));
  }
  mix(digest, network.messages_sent());
  mix(digest, network.root_messages());
  mix(digest, network.tree_hops());
  mix(digest, network.retransmissions());
  mix(digest, network.partials_lost());
  mix(digest, static_cast<std::uint64_t>(network.max_fan_in()));
  return digest;
}

faults::ToolFaultPlan alternating_plan(int interior) {
  faults::ToolFaultPlan plan;
  plan.loss_probability = 0.1;
  plan.delay_mean = sim::from_millis(2);
  plan.reregistration_latency = sim::from_millis(250);
  plan.monitor_crashes.push_back(
      {.monitor = interior, .at = 60 * sim::kSecond + sim::kSecond / 2});
  plan.monitor_crashes.push_back(
      {.monitor = -1, .at = 90 * sim::kSecond + sim::kSecond / 2});
  plan.lead_crash_at = 130 * sim::kSecond + sim::kSecond / 2;
  plan.seed = 0xA17E;
  return plan;
}

TEST(TreeFailover, StarLossyCrashRunWithAlternatingSets) {
  // The star counterpart of the draw-order pin, with the set fixed between
  // crashes as the detector's two monitor sets are: node 5 dies between
  // two samples of each set, a random victim later, then the lead. The
  // constant was recorded with the per-sample grouping that the cached
  // sample plans replaced.
  PinSubstrate substrate;
  core::MonitorNetwork network(substrate);
  network.set_tool_faults(alternating_plan(5));
  const std::uint64_t digest = alternating_lossy_run(network, substrate);
  EXPECT_EQ(network.monitor_crashes(), 3u);
  EXPECT_EQ(network.lead_failovers(), 1u);
  EXPECT_GT(network.partials_lost(), 0u);
  EXPECT_EQ(digest, UINT64_C(0x1DC0DFD2FD4B12D4)) << std::hex << digest;
}

TEST(TreeFailover, TreeLossyCrashRunWithAlternatingSets) {
  // The same alternating run over a 4-ary tree: an interior monitor dies
  // between two samples of each set and re-parents its subtree, then the
  // root fails over.
  PinSubstrate substrate;
  core::MonitorNetwork network(substrate);
  core::TopologyConfig topology;
  topology.fanout = 4;
  topology.seed = 0x5EED;
  network.set_topology(topology);
  const core::MonitorTopology* tree = network.topology();
  ASSERT_NE(tree, nullptr);
  const int interior = tree->children(tree->root()).front();
  network.set_tool_faults(alternating_plan(interior));
  const std::uint64_t digest = alternating_lossy_run(network, substrate);
  EXPECT_EQ(network.monitor_crashes(), 3u);
  EXPECT_GE(network.subtree_failovers(), 1u);
  EXPECT_EQ(network.lead_failovers(), 1u);
  EXPECT_GT(network.partials_lost(), 0u);
  EXPECT_EQ(digest, UINT64_C(0x8D3F5425C9FF8116)) << std::hex << digest;
}

// --- End-to-end through run_one() ------------------------------------------

harness::RunConfig hang_config(std::uint64_t seed) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.input = "C";
  config.nranks = 96;
  config.platform = sim::Platform::tianhe2();  // 4 nodes
  config.seed = seed;
  config.background_slowdowns = false;
  config.fault = faults::FaultType::kComputeHang;
  config.fault_trigger_lo = 40 * sim::kSecond;
  config.fault_trigger_hi = 40 * sim::kSecond;
  return config;
}

std::string journal_of(harness::RunConfig config) {
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  (void)harness::run_one(config);
  return out.str();
}

TEST(TreeFailover, UnsetTreeIsByteIdenticalToExplicitStar) {
  // The compatibility contract: not asking for a tree and explicitly
  // asking for fan-out "infinity" are the same run, byte for byte.
  harness::RunConfig star = hang_config(5);
  harness::RunConfig inf = hang_config(5);
  inf.monitor_tree.fanout = 0;
  EXPECT_EQ(journal_of(star), journal_of(inf));
}

TEST(TreeFailover, TreeRunDetectsLikeTheStarAndJournalsItsLevels) {
  harness::RunConfig star_config = hang_config(9);
  harness::RunConfig tree_config = hang_config(9);
  tree_config.monitor_tree.fanout = 2;

  const auto star = harness::run_one(star_config);
  const auto tree = harness::run_one(tree_config);
  // The tree reroutes the tool's own traffic, not its observations: the
  // same hang is caught at the same instant.
  ASSERT_FALSE(star.hangs().empty());
  ASSERT_FALSE(tree.hangs().empty());
  EXPECT_EQ(star.hangs().front().detected_at, tree.hangs().front().detected_at);
  // Tree accounting flows to the RunResult; the star's stays zero.
  EXPECT_EQ(star.tree_hops, 0u);
  EXPECT_GT(tree.tree_hops, 0u);
  EXPECT_LE(tree.max_monitor_fan_in, 2);
  EXPECT_LE(tree.root_messages, tree.tree_hops);

  const std::string star_log = journal_of(star_config);
  const std::string tree_log = journal_of(tree_config);
  EXPECT_EQ(star_log.find("\"ev\":\"monitor_level\""), std::string::npos);
  EXPECT_EQ(star_log.find("\"tree\":true"), std::string::npos);
  EXPECT_NE(tree_log.find("\"ev\":\"monitor_level\""), std::string::npos);
  EXPECT_NE(tree_log.find("\"tree\":true"), std::string::npos);
}

TEST(TreeFailover, InteriorCrashIsJournaledEndToEnd) {
  // The runner derives the tree placement from the run seed; for seed 9
  // monitor 1 is an interior node with one child (monitor 2), so killing
  // it promotes 2 under the root — visible in the journal and in the
  // RunResult counters.
  harness::RunConfig config = hang_config(9);
  config.fault = faults::FaultType::kNone;
  config.monitor_tree.fanout = 2;
  config.tool_faults.monitor_crashes.push_back(
      {.monitor = 1, .at = 40 * sim::kSecond});

  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  const auto result = harness::run_one(config);
  EXPECT_EQ(result.monitor_crashes, 1u);
  EXPECT_EQ(result.subtree_failovers, 1u);
  EXPECT_EQ(result.lead_failovers, 0u);

  const std::string log = out.str();
  EXPECT_NE(log.find("\"ev\":\"monitor_crash\""), std::string::npos);
  EXPECT_NE(log.find("\"ev\":\"tree_failover\""), std::string::npos);
  EXPECT_NE(log.find("\"failed\":1"), std::string::npos);
  EXPECT_NE(log.find("\"promoted\":2"), std::string::npos);
  EXPECT_EQ(log.find("\"ev\":\"lead_failover\""), std::string::npos);
}

}  // namespace
}  // namespace parastack
