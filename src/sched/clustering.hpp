#pragma once

#include <cstdint>
#include <vector>

namespace plim::sched {

class DependenceGraph;

/// Heavy-edge agglomerative clusters of a program's value-lifetime
/// segments: segments are weighted by their instruction count,
/// producer→consumer operand reads become edges, and merging the
/// heaviest edges first (Kruskal-style, capped at a per-cluster size
/// budget) keeps majority subtrees *and* long RAW chains — whose nodes
/// typically have fanout > 1 — inside one cluster, so only cluster
/// boundaries ever cross the inter-bank bus. Returns segment → cluster
/// root (roots at the smallest member id). This is the cluster
/// granularity both the bank assignment and the KL refinement pass move
/// around.
[[nodiscard]] std::vector<std::uint32_t> cluster_segments(
    const DependenceGraph& graph, std::uint32_t banks);

}  // namespace plim::sched
