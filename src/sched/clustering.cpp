#include "sched/clustering.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sched/depgraph.hpp"

namespace plim::sched {

namespace {

/// Union-find over weighted nodes that merges along the heaviest edges
/// first while a cluster stays within a size budget.
class HeavyEdgeClusters {
 public:
  /// One entry per node; `node_size[v]` is the load (in instructions)
  /// node v contributes to its cluster.
  explicit HeavyEdgeClusters(std::vector<std::uint32_t> node_size)
      : parent_(node_size.size()), size_(std::move(node_size)) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  /// Aggregates duplicate (producer, consumer) pairs into edge weights
  /// and merges along the heaviest edges (ties: lowest pair) while the
  /// union stays within `budget` total size. Call at most once.
  void agglomerate(std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs,
                   std::uint32_t budget) {
    std::sort(pairs.begin(), pairs.end());
    struct Edge {
      std::uint32_t weight;
      std::pair<std::uint32_t, std::uint32_t> link;
    };
    std::vector<Edge> edges;
    for (std::size_t k = 0; k < pairs.size();) {
      std::size_t j = k;
      while (j < pairs.size() && pairs[j] == pairs[k]) {
        ++j;
      }
      edges.push_back({static_cast<std::uint32_t>(j - k), pairs[k]});
      k = j;
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
      if (x.weight != y.weight) {
        return x.weight > y.weight;
      }
      return x.link < y.link;
    });
    for (const auto& e : edges) {
      merge(e.link.first, e.link.second, budget);
    }
  }

  /// Cluster representative of node v (path-halving union-find). Roots
  /// sit at the smallest member id, so cluster ids ascend like node ids.
  [[nodiscard]] std::uint32_t find(std::uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

 private:
  void merge(std::uint32_t x, std::uint32_t y, std::uint32_t budget) {
    const auto rx = find(x);
    const auto ry = find(y);
    if (rx == ry || size_[rx] + size_[ry] > budget) {
      return;
    }
    // Root at the smaller id so cluster ids stay ascending (producers
    // tend to precede consumers, which the bank assignment relies on).
    const auto lo = std::min(rx, ry);
    const auto hi = std::max(rx, ry);
    parent_[hi] = lo;
    size_[lo] += size_[hi];
  }

  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

/// The cluster-size budget: a quarter of a bank's fair share of `total`
/// load. Coarse enough that chains rarely cross clusters, fine enough
/// that bank assignment can still balance (picked empirically on the
/// EPFL suite — larger clusters starve balancing, smaller ones re-create
/// the transfer chains clustering exists to avoid).
std::uint32_t cluster_budget(std::uint32_t total, std::uint32_t banks) {
  return std::max<std::uint32_t>(8, total / (4 * banks));
}

}  // namespace

std::vector<std::uint32_t> cluster_segments(const DependenceGraph& graph,
                                            std::uint32_t banks) {
  constexpr auto npos = DependenceGraph::npos;
  const auto n = graph.num_instructions();
  const auto num_segments = graph.num_segments();

  std::vector<std::uint32_t> seg_size(num_segments);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    seg_size[s] = graph.segment_size(s);
  }

  // Producer→consumer operand reads between segments, one pair per read
  // (not the graph's deduplicated read graph: repeat reads are what
  // agglomerate() weighs edges by).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(std::size_t{2} * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto s = graph.segment_of(i);
    for (const auto def : {graph.def_of_a(i), graph.def_of_b(i)}) {
      if (def == npos) {
        continue;
      }
      const auto ps = graph.segment_of(def);
      if (ps != s) {
        pairs.emplace_back(ps, s);
      }
    }
  }

  HeavyEdgeClusters clusters(std::move(seg_size));
  clusters.agglomerate(std::move(pairs), cluster_budget(n, banks));
  std::vector<std::uint32_t> cluster_of(num_segments);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    cluster_of[s] = clusters.find(s);
  }
  return cluster_of;
}

}  // namespace plim::sched
