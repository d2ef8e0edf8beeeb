#include "core/monitor_topology.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace parastack::core {

namespace {

/// Nodes a k-ary tree with `levels` levels below the root can hold
/// (saturating, so huge fanouts don't overflow).
std::uint64_t capacity(std::uint64_t fanout, int levels) {
  std::uint64_t total = 1;  // the root
  std::uint64_t width = 1;
  for (int l = 0; l < levels; ++l) {
    if (width > std::numeric_limits<std::uint64_t>::max() / fanout) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    width *= fanout;
    if (total > std::numeric_limits<std::uint64_t>::max() - width) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    total += width;
  }
  return total;
}

}  // namespace

void MonitorTopology::build(int nodes, const TopologyConfig& config) {
  PS_CHECK(nodes > 0, "topology needs at least one monitor");
  PS_CHECK(config.tree(), "MonitorTopology::build requires fanout > 0");

  // A depth cap widens the effective fanout until everyone fits.
  std::uint64_t fanout = static_cast<std::uint64_t>(config.fanout);
  if (config.depth > 0) {
    while (capacity(fanout, config.depth) <
           static_cast<std::uint64_t>(nodes)) {
      ++fanout;
    }
  }
  effective_fanout_ = static_cast<int>(fanout);

  // Positions form the complete k-ary tree (position 0 = root, parent of
  // position p is (p-1)/k); the placement permutation decides which
  // monitor id sits at which position.
  std::vector<int> place(static_cast<std::size_t>(nodes));
  std::iota(place.begin(), place.end(), 0);
  if (config.seed != 0) {
    util::Rng rng(config.seed);
    for (std::size_t i = place.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(i + 1)));
      std::swap(place[i], place[j]);
    }
  }

  parent_.assign(static_cast<std::size_t>(nodes), -1);
  gather_rank_.assign(static_cast<std::size_t>(nodes), 0);  // levels, for now
  children_.assign(static_cast<std::size_t>(nodes), {});
  root_ = place[0];
  for (std::size_t p = 1; p < place.size(); ++p) {
    const auto node = static_cast<std::size_t>(place[p]);
    const auto parent = static_cast<std::size_t>(place[(p - 1) / fanout]);
    parent_[node] = static_cast<int>(parent);
    gather_rank_[node] = gather_rank_[parent] + 1;
    children_[parent].push_back(place[p]);
  }
  for (auto& kids : children_) std::sort(kids.begin(), kids.end());
  order_by_level();
}

void MonitorTopology::order_by_level() {
  std::vector<int> cursor;  // nodes per level, then the next free position
  for (const int level : gather_rank_) {
    if (level < 0) continue;
    if (static_cast<std::size_t>(level) >= cursor.size()) {
      cursor.resize(static_cast<std::size_t>(level) + 1, 0);
    }
    ++cursor[static_cast<std::size_t>(level)];
  }
  // Deepest level first: level L starts after every deeper level.
  level_first_.resize(cursor.size());
  int next = 0;
  for (std::size_t level = cursor.size(); level-- > 0;) {
    level_first_[level] = next;
    next += cursor[level];
    cursor[level] = level_first_[level];
  }
  // Ascending node id within a level falls out of visiting ids in order.
  gather_order_.resize(static_cast<std::size_t>(next));
  for (std::size_t node = 0; node < gather_rank_.size(); ++node) {
    const int level = gather_rank_[node];
    if (level < 0) continue;
    const int rank = cursor[static_cast<std::size_t>(level)]++;
    gather_order_[static_cast<std::size_t>(rank)] = static_cast<int>(node);
    gather_rank_[node] = rank;
  }
}

int MonitorTopology::level(int node) const {
  // level_first_ falls as the level rises: the node's level is the first
  // whose range starts at or before its rank.
  const auto it = std::lower_bound(level_first_.begin(), level_first_.end(),
                                   gather_rank(node), std::greater<>());
  return static_cast<int>(it - level_first_.begin());
}

MonitorTopology::Removal MonitorTopology::remove(int node) {
  PS_CHECK(built(), "topology not built");
  PS_CHECK(node >= 0 && node < nodes(), "remove: node out of range");
  const auto idx = static_cast<std::size_t>(node);
  PS_CHECK(!removed(node), "remove: node already removed");
  // Hold levels in gather_rank_ while the shape changes (level(n) reads
  // only n's own rank); order_by_level() re-ranks the survivors at the end.
  for (int n = 0; n < nodes(); ++n) {
    if (!removed(n)) gather_rank_[static_cast<std::size_t>(n)] = level(n);
  }
  gather_rank_[idx] = -1;

  Removal result;
  const int old_parent = parent_[idx];
  auto detach_from_parent = [&](int child) {
    if (old_parent < 0) return;
    auto& kids = children_[static_cast<std::size_t>(old_parent)];
    kids.erase(std::find(kids.begin(), kids.end(), child));
  };

  std::vector<int>& orphans = children_[idx];
  if (orphans.empty()) {
    detach_from_parent(node);
    if (node == root_) {
      // The last monitor standing was the root: the tree is now empty.
      result.root_changed = true;
      result.new_root = -1;
      root_ = -1;
    }
    order_by_level();
    return result;
  }

  // Promote the lowest surviving child into the vacated position; its
  // former siblings re-parent under it, its own children stay put.
  const int promoted = orphans.front();  // children are kept sorted
  const auto promoted_idx = static_cast<std::size_t>(promoted);
  result.promoted = promoted;
  result.adopted = static_cast<int>(orphans.size()) - 1;
  detach_from_parent(node);
  parent_[promoted_idx] = old_parent;
  if (old_parent >= 0) {
    auto& kids = children_[static_cast<std::size_t>(old_parent)];
    kids.insert(std::upper_bound(kids.begin(), kids.end(), promoted),
                promoted);
  }
  auto& adopted = children_[promoted_idx];
  for (std::size_t i = 1; i < orphans.size(); ++i) {
    parent_[static_cast<std::size_t>(orphans[i])] = promoted;
    adopted.push_back(orphans[i]);
  }
  std::sort(adopted.begin(), adopted.end());
  orphans.clear();

  // The promotee climbed one level; recompute levels across its subtree
  // (rare — once per interior crash — so a simple BFS is fine).
  auto& levels = gather_rank_;
  levels[promoted_idx] =
      old_parent < 0 ? 0 : levels[static_cast<std::size_t>(old_parent)] + 1;
  std::vector<int> frontier{promoted};
  while (!frontier.empty()) {
    std::vector<int> next;
    for (const int at : frontier) {
      for (const int child : children_[static_cast<std::size_t>(at)]) {
        levels[static_cast<std::size_t>(child)] =
            levels[static_cast<std::size_t>(at)] + 1;
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  order_by_level();

  if (node == root_) {
    result.root_changed = true;
    result.new_root = promoted;
    root_ = promoted;
  }
  return result;
}

}  // namespace parastack::core
