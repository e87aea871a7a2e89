//===- graph/CallGraph.h - Directed call graph with weighted arcs --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call-graph representation shared by the analysis pipeline (paper §4)
/// and by the pure graph algorithms (Tarjan SCC, cycle collapse, feedback
/// arc selection).  Nodes are routines; arcs go from caller to callee and
/// carry a traversal count.  Arcs with count zero and the Static flag are
/// the statically-discovered arcs of §4: they shape the graph (and may
/// complete cycles) but never carry propagated time.
///
/// The graph is immutable and built in one call, in compressed sparse row
/// form: arcs sorted by (From, To), and arc ids bucketed by caller and by
/// callee.  Every adjacency list is a contiguous slice, and building costs
/// one sort and two counting sorts.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_GRAPH_CALLGRAPH_H
#define GPROF_GRAPH_CALLGRAPH_H

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gprof {

/// Index of a node within a CallGraph.
using NodeId = uint32_t;
/// Index of an arc within a CallGraph.
using ArcId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId InvalidNode = ~static_cast<NodeId>(0);

/// Positions 0..N-1 grouped by key, each group in position order: a
/// counting sort.
class Buckets {
public:
  template <typename KeyFn>
  Buckets(size_t NumKeys, uint32_t N, KeyFn Key) : Start(NumKeys + 1, 0) {
    for (uint32_t I = 0; I != N; ++I)
      ++Start[Key(I) + 1];
    for (size_t K = 0; K != NumKeys; ++K)
      Start[K + 1] += Start[K];
    Items.resize(N);
    std::vector<uint32_t> Next(Start.begin(), Start.end() - 1);
    for (uint32_t I = 0; I != N; ++I)
      Items[Next[Key(I)]++] = I;
  }

  std::span<const uint32_t> operator[](uint32_t K) const {
    return {Items.data() + Start[K], Items.data() + Start[K + 1]};
  }

private:
  std::vector<uint32_t> Start;
  std::vector<uint32_t> Items;
};

/// One caller→callee arc.
struct Arc {
  NodeId From = InvalidNode;
  NodeId To = InvalidNode;
  /// Number of traversals recorded for this arc (zero for purely static
  /// arcs).
  uint64_t Count = 0;
  /// True if this arc was only discovered by crawling the executable image.
  bool Static = false;
};

/// An immutable directed graph of named nodes with weighted, deduplicated
/// arcs and adjacency slices in both directions.
class CallGraph {
public:
  /// An empty graph.
  CallGraph() : CallGraph({}, {}) {}

  /// Builds the graph over nodes named \p Names (need not be unique; the
  /// profiler disambiguates by address) from \p Arcs.  Repeated (From, To)
  /// pairs coalesce into one arc: counts sum, and Static stays set only if
  /// every copy is static.  Arc ids follow (From, To) order.
  CallGraph(std::vector<std::string> Names, std::vector<Arc> Arcs);

  /// Returns the arc id for (From, To) or InvalidNode if absent.
  ArcId findArc(NodeId From, NodeId To) const;

  size_t numNodes() const { return Names.size(); }
  size_t numArcs() const { return Arcs.size(); }

  const std::string &nodeName(NodeId N) const {
    assert(N < Names.size() && "node id out of range");
    return Names[N];
  }

  /// Every node's name, indexed by NodeId.
  const std::vector<std::string> &nodeNames() const { return Names; }

  const Arc &arc(ArcId A) const {
    assert(A < Arcs.size() && "arc id out of range");
    return Arcs[A];
  }

  /// Ids of arcs leaving \p N (N as caller), in increasing To order.
  std::span<const ArcId> outArcs(NodeId N) const {
    assert(N < Names.size() && "node id out of range");
    return Out[N];
  }

  /// Ids of arcs entering \p N (N as callee), in increasing From order.
  std::span<const ArcId> inArcs(NodeId N) const {
    assert(N < Names.size() && "node id out of range");
    return In[N];
  }

  /// Finds the first node named \p Name, or InvalidNode.
  NodeId findNode(const std::string &Name) const;

  /// Sum of counts on arcs into \p N, excluding the self arc.  This is the
  /// paper's C_e: "call counts for routines can then be determined by
  /// summing the counts on arcs directed into that routine" (§3.1).
  uint64_t incomingCallCount(NodeId N) const;

  /// True if the graph has no directed cycle (self arcs count as cycles).
  bool isAcyclic() const;

private:
  std::vector<std::string> Names;
  /// Sorted by (From, To), one arc per pair.
  std::vector<Arc> Arcs;
  /// Arc ids by caller and by callee.  Both keep id order, so out-arcs are
  /// in callee order and in-arcs in caller order.
  Buckets Out, In;
};

} // namespace gprof

#endif // GPROF_GRAPH_CALLGRAPH_H
