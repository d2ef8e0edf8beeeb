#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/monitor_substrate.hpp"
#include "core/monitor_topology.hpp"
#include "faults/fault.hpp"
#include "simmpi/types.hpp"
#include "simmpi/world.hpp"
#include "trace/inspector.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace parastack::obs::perf {
class Counter;
class HighWater;
}  // namespace parastack::obs::perf

namespace parastack::core {

/// The distributed tool topology of paper §3.3/§5: ParaStack launches one
/// monitor per node. At any moment only the monitors hosting currently
/// monitored ranks are ACTIVE — they ptrace their local targets and send
/// one partial count toward the lead monitor, which aggregates S_crout.
/// All other monitors idle in a sleep + nonblocking-probe loop. This is
/// what makes the tool's cost O(C), independent of the job size:
///   - at most C processes are traced per sample,
///   - at most C monitor messages cross the network per sample,
///   - idle monitors consume (simulated) nothing.
///
/// Two aggregation shapes exist. The compatibility default is the paper's
/// flat star: every active monitor reports straight to the lead. Arming a
/// k-ary MonitorTopology (set_topology) routes partial counts level by
/// level up an aggregation tree instead, bounding every monitor's fan-in
/// by O(fanout) so the root never becomes the hot spot at extreme scale.
///
/// The network can additionally carry a faults::ToolFaultPlan
/// (set_tool_faults): partial-count messages may then be lost or delayed
/// per hop, monitors may crash on a schedule, a dead root triggers
/// deterministic failover to its lowest surviving child (star: the lowest
/// surviving monitor id), and a dead interior monitor promotes its lowest
/// surviving child and re-parents the subtree. With no plan (or an
/// inactive one) the original zero-fault path runs unchanged — no extra
/// RNG draws, identical accounting, identical telemetry.
class MonitorNetwork {
 public:
  explicit MonitorNetwork(simmpi::World& world,
                          trace::StackInspector& inspector);
  /// Drive the aggregation layer over any substrate (synthetic worlds for
  /// the extreme-scale benches). The substrate must outlive the network.
  explicit MonitorNetwork(MonitorSubstrate& substrate);

  struct Measurement {
    double scrout = 0.0;      ///< over the partials that reached the lead
    int ranks_traced = 0;     ///< ranks actually ptraced this sample
    int active_monitors = 0;  ///< distinct nodes hosting the set
    /// Tool-internal latency to gather the partial counts at the root.
    /// Star: one binomial-tree gather over the active monitors. Tree: the
    /// sum of the per-level gathers along the aggregation tree. Both plus
    /// timeout/retry/failover penalties under an active tool-fault plan.
    sim::Time aggregation_latency = 0;
    /// Aggregation rounds behind `aggregation_latency`: the binomial
    /// gather depth for the star, the deepest carrier level for a tree.
    int levels = 0;
    /// Partial counts received directly by the root this sample (the
    /// root's fan-in — O(active monitors) for the star, O(fanout) for a
    /// tree; the quantity the scalability benches plot).
    int root_fan_in = 0;
    // Tool-fault bookkeeping; defaults describe a healthy sample.
    int partials_missing = 0;  ///< partial counts that never arrived
    int retries = 0;           ///< retransmissions this sample
    double coverage = 1.0;     ///< counted ranks / set size
    bool degraded = false;     ///< nothing arrived: the sample is blind
  };

  /// One S_crout sample of `set`, performed the way the real tool does it:
  /// per-node tracing by the owning (active) monitors plus a count
  /// aggregation. Charges the traced ranks their ptrace stops via the
  /// inspector.
  Measurement measure(const std::vector<simmpi::Rank>& set);

  /// Arm the k-ary aggregation tree. Call before the first sample and
  /// before set_tool_faults (crash victim selection must know the root).
  /// A non-tree config (fanout <= 0, the "infinite fanout" star) is
  /// ignored and keeps the flat-star path byte-identical.
  void set_topology(const TopologyConfig& config);
  bool tree_mode() const noexcept { return topology_.built(); }
  /// The armed tree (star mode: nullptr).
  const MonitorTopology* topology() const noexcept {
    return topology_.built() ? &topology_ : nullptr;
  }

  /// Arm the tool-side fault model. Call before the first sample; an
  /// inactive plan is ignored (the healthy path stays byte-identical).
  void set_tool_faults(const faults::ToolFaultPlan& plan);
  bool tool_faults_active() const noexcept { return plan_.has_value(); }

  int monitor_count() const noexcept { return sub_.nnodes(); }
  /// Monitors that would be active for `set` (distinct hosting nodes), read
  /// from the set's sample plan.
  int active_monitors_for(const std::vector<simmpi::Rank>& set);
  /// Current aggregation root (star: lowest surviving monitor id; tree:
  /// the topology root; -1 = none left). Without a fault plan the lead is
  /// immortal.
  int lead_monitor() const noexcept { return lead_; }
  bool monitor_alive(int node) const;

  /// Cumulative tool-internal traffic (for the scalability accounting).
  std::uint64_t messages_sent() const noexcept { return messages_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_; }
  std::uint64_t samples() const noexcept { return samples_; }
  /// Ranks traced through the network (sampling only; detection-time full
  /// sweeps go directly through the inspector and are one-off O(P)).
  std::uint64_t ranks_traced_total() const noexcept { return traced_; }
  /// Messages received directly by the root (== messages_sent for the
  /// star; O(fanout) per sample for a tree).
  std::uint64_t root_messages() const noexcept { return root_messages_; }
  /// Parent-hops traversed by aggregated partials (tree mode; the star
  /// counts every message as one hop to the lead).
  std::uint64_t tree_hops() const noexcept { return tree_hops_; }
  /// Largest per-monitor fan-in seen in any single sample.
  int max_fan_in() const noexcept { return max_fan_in_; }
  /// Tree levels whose gather hit the per-level deadline and forwarded
  /// early (always zero in star mode or without a configured deadline).
  std::uint64_t level_deadline_hits() const noexcept {
    return deadline_hits_;
  }

  /// Tool-fault outcome counters (all zero without an active plan).
  std::uint64_t monitor_crashes() const noexcept { return crashes_; }
  std::uint64_t lead_failovers() const noexcept { return failovers_; }
  /// Interior-monitor deaths that promoted a child and re-parented its
  /// subtree (tree mode only; root deaths count as lead failovers).
  std::uint64_t subtree_failovers() const noexcept {
    return subtree_failovers_;
  }
  std::uint64_t partials_lost() const noexcept { return lost_; }
  std::uint64_t retransmissions() const noexcept { return retries_total_; }

 private:
  /// Everything a sample needs that follows from the set's contents, the
  /// tree's shape and which monitors are alive — and from nothing else.
  /// ParaStack draws its monitor sets once (§3.3), so a plan is built the
  /// first time a set is measured and reused until a monitor crash changes
  /// the shape.
  struct SamplePlan {
    std::vector<simmpi::Rank> set;  ///< the key: the set's contents
    std::uint64_t shape_epoch = 0;  ///< shape_epoch_ the plan was built in
    std::uint64_t last_used = 0;    ///< plan_clock_ at its latest lookup
    /// The set grouped by hosting node (CSR): active_nodes ascending,
    /// grouped holding the ranks node by node (set order within a node),
    /// group_offset[slot] the start of that node's slice.
    std::vector<int> active_nodes;
    std::vector<int> group_offset;
    std::vector<simmpi::Rank> grouped;
    /// Carrier index of each slot's monitor (-1: the monitor is dead).
    std::vector<int> slot_carrier;
    /// The monitors a sample's partial counts pass through, in hop order
    /// with the root last. Tree: the live active monitors and their
    /// ancestors in the topology's gather order. Star: the live non-lead
    /// active monitors ascending, then the lead.
    std::vector<int> carriers;
    std::vector<int> carrier_parent;  ///< parent's carrier index (-1: root)
    std::vector<int> carrier_fan_in;  ///< partials each carrier receives
    /// Aggregation rounds and their latency before any fault penalty.
    int levels = 0;
    sim::Time gather_latency = 0;
    /// Tree only: one gather per receiving level, deepest first. Empty for
    /// the star and for a sample that never leaves the root's node.
    struct LevelGather {
      int level = 0;  ///< receiving level + 1, as journaled
      int senders = 0;
      int max_fan_in = 0;
      sim::Time latency = 0;
    };
    std::vector<LevelGather> level_gathers;
    int widest_fan_in = 0;            ///< largest carrier fan-in
    std::uint64_t deadline_hits = 0;  ///< level gathers the deadline capped
  };
  /// One carrier's aggregate during a faulty sample.
  struct Partial {
    int monitors = 0;       ///< partial counts folded in
    int covered = 0;        ///< ranks counted
    int out = 0;            ///< of which OUT_MPI
    sim::Time penalty = 0;  ///< longest fault wait on the way here
  };
  /// Room for the two sets of four detectors sharing one network.
  static constexpr std::size_t kMaxPlans = 8;

  Measurement measure_healthy(const std::vector<simmpi::Rank>& set);
  Measurement measure_under_faults(const std::vector<simmpi::Rank>& set);
  /// The plan for `set` under the current shape: a cached one with equal
  /// contents, rebuilt if the shape changed since, or a new one replacing
  /// the least recently used.
  const SamplePlan& plan_for(const std::vector<simmpi::Rank>& set);
  void build_plan(SamplePlan& plan);
  /// Tree gathers: count deadline hits and the fan-in high-water mark and
  /// emit one MonitorLevelEvent per level of `plan`.
  void charge_level_gathers(const SamplePlan& plan, sim::Time now);
  /// Apply every scheduled crash whose instant has passed; maintains the
  /// root and emits crash/failover telemetry.
  void advance_tool_state(sim::Time now);
  void crash_monitor(int node, sim::Time at);
  void emit_sample_event(const Measurement& measurement, std::uint64_t messages,
                         std::uint64_t bytes);
  void init_perf();
  void init_tree_perf();

  std::optional<WorldSubstrate> owned_;  ///< backs sub_ for the World ctor
  MonitorSubstrate& sub_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t traced_ = 0;
  std::uint64_t root_messages_ = 0;
  std::uint64_t tree_hops_ = 0;
  int max_fan_in_ = 0;

  // Aggregation topology (flat star unless set_topology armed a tree).
  MonitorTopology topology_;
  sim::Time level_deadline_ = 0;  ///< per-level gather cap (0 = none)
  std::uint64_t deadline_hits_ = 0;

  // Tool-fault state (untouched unless set_tool_faults armed a plan).
  std::optional<faults::ToolFaultPlan> plan_;
  util::Rng tool_rng_;
  util::DynamicBitset dead_;
  std::vector<faults::MonitorCrash> crash_schedule_;  ///< victims resolved
  std::size_t next_crash_ = 0;
  bool lead_crash_applied_ = false;
  int lead_ = 0;
  sim::Time pending_reregistration_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t subtree_failovers_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t retries_total_ = 0;

  // Sample plans, and the epoch that every change of shape or liveness
  // advances (set_topology, set_tool_faults, each monitor crash).
  std::vector<SamplePlan> plans_;
  std::uint64_t plan_clock_ = 0;
  std::uint64_t shape_epoch_ = 0;
  std::vector<Partial> partials_;  ///< per carrier, reused every sample

  // Perf mirrors of the counters above, resolved once from the engine's
  // ProfileRegistry (all null when perf accounting is off).
  obs::perf::Counter* perf_samples_ = nullptr;
  obs::perf::Counter* perf_messages_ = nullptr;
  obs::perf::Counter* perf_retries_ = nullptr;
  obs::perf::Counter* perf_failovers_ = nullptr;
  obs::perf::Counter* perf_subtree_failovers_ = nullptr;
  obs::perf::Counter* perf_crashes_ = nullptr;
  obs::perf::Counter* perf_lost_ = nullptr;
  obs::perf::Counter* perf_root_messages_ = nullptr;
  obs::perf::Counter* perf_tree_hops_ = nullptr;
  obs::perf::HighWater* perf_fan_in_ = nullptr;
};

}  // namespace parastack::core
