#include "core/monitor_topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace parastack::core {
namespace {

TopologyConfig tree_config(int fanout, int depth = 0, std::uint64_t seed = 0) {
  TopologyConfig config;
  config.fanout = fanout;
  config.depth = depth;
  config.seed = seed;
  return config;
}

/// Structural invariants every built (and every post-removal) tree must
/// satisfy: one root, parent/child symmetry, levels = parent level + 1,
/// children within the effective fanout, every survivor reachable.
void expect_valid_tree(const MonitorTopology& t) {
  ASSERT_TRUE(t.built());
  int survivors = 0;
  int roots = 0;
  for (int n = 0; n < t.nodes(); ++n) {
    if (t.removed(n)) continue;
    ++survivors;
    const int p = t.parent(n);
    if (p < 0) {
      ++roots;
      EXPECT_EQ(t.level(n), 0) << "root must sit at level 0";
      EXPECT_EQ(t.root(), n);
    } else {
      EXPECT_FALSE(t.removed(p)) << "live node " << n << " has dead parent";
      EXPECT_EQ(t.level(n), t.level(p) + 1);
      const auto& siblings = t.children(p);
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), n),
                siblings.end())
          << "parent " << p << " does not list child " << n;
    }
    const auto& kids = t.children(n);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end()));
    for (const int c : kids) EXPECT_EQ(t.parent(c), n);
  }
  if (survivors > 0) EXPECT_EQ(roots, 1);
}

/// Freshly built trees (no removals yet) additionally respect the fanout
/// bound. Failover can exceed it: a promoted monitor adopts its siblings.
void expect_within_fanout(const MonitorTopology& t) {
  for (int n = 0; n < t.nodes(); ++n) {
    EXPECT_LE(static_cast<int>(t.children(n).size()), t.effective_fanout());
  }
}

TEST(MonitorTopology, BinaryTreeShape) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  expect_valid_tree(t);
  expect_within_fanout(t);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.effective_fanout(), 2);
  // Identity placement: complete binary tree, level order by id.
  EXPECT_EQ(t.children(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(t.children(1), (std::vector<int>{3, 4}));
  EXPECT_EQ(t.children(2), (std::vector<int>{5, 6}));
  EXPECT_EQ(t.max_level(), 2);
}

TEST(MonitorTopology, SingleNodeIsItsOwnRoot) {
  MonitorTopology t;
  t.build(1, tree_config(4));
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(0), -1);
  EXPECT_EQ(t.max_level(), 0);
}

TEST(MonitorTopology, DepthCapWidensFanout) {
  // 100 nodes with fanout 2 would need 6 levels; a depth cap of 2 must
  // widen the fanout until root + fanout + fanout^2 >= 100 (fanout 10).
  MonitorTopology t;
  t.build(100, tree_config(2, 2));
  expect_valid_tree(t);
  expect_within_fanout(t);
  EXPECT_EQ(t.effective_fanout(), 10);
  EXPECT_LE(t.max_level(), 2);
}

TEST(MonitorTopology, SeededPlacementIsDeterministicAndComplete) {
  MonitorTopology a;
  MonitorTopology b;
  a.build(33, tree_config(3, 0, 42));
  b.build(33, tree_config(3, 0, 42));
  expect_valid_tree(a);
  expect_within_fanout(a);
  for (int n = 0; n < 33; ++n) {
    EXPECT_EQ(a.parent(n), b.parent(n));
    EXPECT_EQ(a.level(n), b.level(n));
  }
  // A different seed re-places at least one node (33! permutations; two
  // fixed seeds colliding would be a generator bug worth hearing about).
  MonitorTopology c;
  c.build(33, tree_config(3, 0, 43));
  bool any_moved = false;
  for (int n = 0; n < 33; ++n) {
    if (a.parent(n) != c.parent(n)) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(MonitorTopology, LeafRemovalJustDetaches) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  const auto removal = t.remove(6);
  EXPECT_EQ(removal.promoted, -1);
  EXPECT_EQ(removal.adopted, 0);
  EXPECT_FALSE(removal.root_changed);
  EXPECT_TRUE(t.removed(6));
  EXPECT_EQ(t.children(2), (std::vector<int>{5}));
  expect_valid_tree(t);
}

TEST(MonitorTopology, InteriorRemovalPromotesLowestChildAndAdoptsSiblings) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  const auto removal = t.remove(1);  // children 3, 4
  EXPECT_EQ(removal.promoted, 3);
  EXPECT_EQ(removal.adopted, 1);  // node 4 re-parents under 3
  EXPECT_FALSE(removal.root_changed);
  EXPECT_EQ(t.parent(3), 0);
  EXPECT_EQ(t.parent(4), 3);
  EXPECT_EQ(t.level(3), 1);
  EXPECT_EQ(t.level(4), 2);
  expect_valid_tree(t);
}

TEST(MonitorTopology, RootRemovalMovesTheRoot) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  const auto removal = t.remove(0);
  EXPECT_TRUE(removal.root_changed);
  EXPECT_EQ(removal.new_root, 1);
  EXPECT_EQ(removal.promoted, 1);
  EXPECT_EQ(removal.adopted, 1);  // node 2 adopted by the new root
  EXPECT_EQ(t.root(), 1);
  EXPECT_EQ(t.parent(1), -1);
  EXPECT_EQ(t.level(1), 0);
  EXPECT_EQ(t.parent(2), 1);
  expect_valid_tree(t);
}

TEST(MonitorTopology, CascadeRemovalKeepsSurvivorsConnected) {
  MonitorTopology t;
  t.build(15, tree_config(2));
  // Parent then its promoted child in the same window.
  const auto first = t.remove(1);
  ASSERT_EQ(first.promoted, 3);
  const auto second = t.remove(3);
  EXPECT_GE(second.promoted, 0);
  expect_valid_tree(t);
  // Every survivor still reaches the root.
  for (int n = 0; n < t.nodes(); ++n) {
    if (t.removed(n)) continue;
    int hops = 0;
    int cur = n;
    while (t.parent(cur) >= 0 && hops <= t.nodes()) {
      cur = t.parent(cur);
      ++hops;
    }
    EXPECT_EQ(cur, t.root());
  }
}

TEST(MonitorTopology, RemovingEverythingEmptiesTheTree) {
  MonitorTopology t;
  t.build(4, tree_config(2));
  for (int n = 0; n < 4; ++n) {
    if (!t.removed(n)) t.remove(t.root());
  }
  EXPECT_EQ(t.root(), -1);
  EXPECT_EQ(t.max_level(), -1);
}

// --- Gather order ------------------------------------------------------------

/// Distance to the root counted along the parent links alone, independent
/// of the topology's own level bookkeeping.
int hops_to_root(const MonitorTopology& t, int node) {
  int hops = 0;
  for (int at = t.parent(node); at >= 0; at = t.parent(at)) ++hops;
  return hops;
}

/// The gather order must be exactly what sorting the survivors by (level
/// descending, id ascending) gives, and the rank maps must be inverses.
void expect_gather_order(const MonitorTopology& t) {
  std::vector<int> expected;
  for (int n = 0; n < t.nodes(); ++n) {
    if (!t.removed(n)) expected.push_back(n);
  }
  std::sort(expected.begin(), expected.end(), [&](int a, int b) {
    const int la = hops_to_root(t, a);
    const int lb = hops_to_root(t, b);
    if (la != lb) return la > lb;
    return a < b;
  });
  EXPECT_EQ(t.gather_order(), expected);
  const auto& order = t.gather_order();
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    EXPECT_EQ(t.gather_rank(order[rank]), static_cast<int>(rank));
  }
  int deepest = -1;
  for (int n = 0; n < t.nodes(); ++n) {
    if (t.removed(n)) {
      EXPECT_EQ(t.gather_rank(n), -1);
      continue;
    }
    const int rank = t.gather_rank(n);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, static_cast<int>(order.size()));
    EXPECT_EQ(order[static_cast<std::size_t>(rank)], n);
    EXPECT_EQ(t.level(n), hops_to_root(t, n));
    deepest = std::max(deepest, hops_to_root(t, n));
  }
  EXPECT_EQ(t.max_level(), deepest);
}

/// Lowest-id surviving monitor that is neither the root nor a leaf.
int first_interior(const MonitorTopology& t) {
  for (int n = 0; n < t.nodes(); ++n) {
    if (!t.removed(n) && n != t.root() && !t.children(n).empty()) return n;
  }
  return -1;
}

TEST(MonitorTopology, GatherOrderFollowsEveryRemovalSequence) {
  const struct {
    const char* name;
    int nodes;
    TopologyConfig config;
  } trees[] = {
      {"identity", 40, tree_config(3)},
      {"seeded", 200, tree_config(4, 0, 77)},
      {"depth-capped", 100, tree_config(2, 2, 9)},
  };
  enum class Sequence { kLeaf, kInterior, kRoot, kCascade };
  for (const auto& tree : trees) {
    for (const Sequence sequence : {Sequence::kLeaf, Sequence::kInterior,
                                    Sequence::kRoot, Sequence::kCascade}) {
      SCOPED_TRACE(testing::Message() << tree.name << " sequence "
                                      << static_cast<int>(sequence));
      MonitorTopology t;
      t.build(tree.nodes, tree.config);
      expect_gather_order(t);
      switch (sequence) {
        case Sequence::kLeaf: {
          const int leaf = t.gather_order().front();  // deepest level
          ASSERT_TRUE(t.children(leaf).empty());
          t.remove(leaf);
          expect_gather_order(t);
          break;
        }
        case Sequence::kInterior: {
          const int interior = first_interior(t);
          ASSERT_GE(interior, 0);
          EXPECT_GE(t.remove(interior).promoted, 0);
          expect_gather_order(t);
          break;
        }
        case Sequence::kRoot: {
          EXPECT_TRUE(t.remove(t.root()).root_changed);
          expect_gather_order(t);
          break;
        }
        case Sequence::kCascade: {
          // An interior node, then each promotee in turn, then drain the
          // tree root by root down to nothing.
          int next = first_interior(t);
          ASSERT_GE(next, 0);
          while (next >= 0) {
            next = t.remove(next).promoted;
            expect_gather_order(t);
          }
          while (t.root() >= 0) {
            t.remove(t.root());
            expect_gather_order(t);
          }
          EXPECT_TRUE(t.gather_order().empty());
          break;
        }
      }
    }
  }
}

TEST(MonitorTopologyDeath, StarConfigRejected) {
  MonitorTopology t;
  EXPECT_DEATH(t.build(4, TopologyConfig{}), "fanout > 0");
}

TEST(MonitorTopologyDeath, DoubleRemovalRejected) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  t.remove(3);
  EXPECT_DEATH(t.remove(3), "removed");
}

}  // namespace
}  // namespace parastack::core
