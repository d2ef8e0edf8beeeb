#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace parastack::core {

/// Shape of the monitor aggregation topology (one monitor per node).
///
/// The compatibility default (`fanout <= 0`) is the paper's flat star:
/// every active monitor reports straight to the lead. A positive fanout
/// arranges the monitors into a k-ary aggregation tree instead, so no
/// single monitor ever receives more than O(fanout) partial counts per
/// sample regardless of how many monitors are active.
struct TopologyConfig {
  /// Children per interior monitor. <= 0 selects the flat star.
  int fanout = 0;
  /// Maximum levels below the root. 0 = unbounded (the fanout alone
  /// shapes the tree); a positive cap widens the effective fanout until
  /// every monitor fits within `depth` levels.
  int depth = 0;
  /// Seed for the node -> tree-position placement. 0 keeps the identity
  /// placement (node 0 at the root, ids level by level); anything else
  /// shuffles placement deterministically, which is how a trial seed
  /// yields a trial-specific tree without extra draws from the trial RNG.
  std::uint64_t seed = 0;
  /// Per-level gather deadline: each tree level's gather step contributes
  /// at most this much latency — a straggling wide level forwards whatever
  /// partial counts arrived in time instead of stalling the whole sample.
  /// 0 (the default) = no deadline, the latency model is unchanged. Only
  /// meaningful in tree mode; the star ignores it.
  sim::Time level_deadline = 0;

  bool tree() const noexcept { return fanout > 0; }
  bool operator==(const TopologyConfig&) const = default;
};

/// Deterministic k-ary aggregation tree over monitor ids, with the
/// failover rule that generalizes the star's lead failover: removing a
/// monitor promotes its lowest-id surviving child into the vacated
/// position and re-parents the rest of the subtree under the promotee.
///
/// The topology is purely structural — liveness bookkeeping (who is
/// dead, coverage, degraded mode) stays in MonitorNetwork.
class MonitorTopology {
 public:
  MonitorTopology() = default;

  /// Build the tree over `nodes` monitors. Requires config.tree().
  void build(int nodes, const TopologyConfig& config);

  bool built() const noexcept { return !parent_.empty(); }
  int nodes() const noexcept { return static_cast<int>(parent_.size()); }
  /// Current aggregation root (-1 once every monitor was removed).
  int root() const noexcept { return root_; }
  /// Parent monitor id (-1 for the root).
  int parent(int node) const { return parent_[static_cast<std::size_t>(node)]; }
  /// Distance from the root (root = 0) of a surviving monitor.
  int level(int node) const;
  /// Children in ascending id order.
  const std::vector<int>& children(int node) const {
    return children_[static_cast<std::size_t>(node)];
  }
  bool removed(int node) const { return gather_rank(node) < 0; }
  /// Fanout actually used (>= config.fanout when a depth cap widened it).
  int effective_fanout() const noexcept { return effective_fanout_; }
  /// Deepest level over the surviving monitors (0 when only a root
  /// remains, -1 when the tree is empty).
  int max_level() const noexcept {
    return static_cast<int>(level_first_.size()) - 1;
  }

  /// The surviving monitors in gather order: deepest level first,
  /// ascending id within a level. A tree sample aggregates (and draws its
  /// per-hop faults) in this order. It is a property of the shape, so it
  /// is kept here and rebuilt only when remove() re-levels the tree.
  const std::vector<int>& gather_order() const noexcept {
    return gather_order_;
  }
  /// Position of `node` in gather_order() (-1 once removed).
  int gather_rank(int node) const {
    return gather_rank_[static_cast<std::size_t>(node)];
  }

  struct Removal {
    /// Child promoted into the removed node's position (-1: it was a leaf).
    int promoted = -1;
    /// Former siblings re-parented under the promotee.
    int adopted = 0;
    bool root_changed = false;
    int new_root = -1;  ///< only meaningful when root_changed
  };

  /// Remove a monitor. A leaf just detaches; an interior node's lowest
  /// surviving child takes its place (adopting the siblings), and a dead
  /// root additionally moves the root to the promotee.
  Removal remove(int node);

 private:
  /// Turn the per-node levels held in gather_rank_ (-1 = removed) into
  /// gather ranks, gather_order_ and level_first_: one counting pass.
  void order_by_level();

  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  std::vector<int> gather_rank_;   ///< node -> gather position (-1 = removed)
  std::vector<int> gather_order_;  ///< gather position -> node
  std::vector<int> level_first_;   ///< level -> its first gather position
  int root_ = -1;
  int effective_fanout_ = 0;
};

}  // namespace parastack::core
