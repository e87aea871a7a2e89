//===- graph/Tarjan.cpp ---------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "graph/Tarjan.h"

#include <algorithm>

using namespace gprof;

namespace {

/// Explicit DFS frame for the iterative Tarjan traversal.
struct Frame {
  NodeId Node;
  size_t NextArc; // index into outArcs(Node) to resume from
};

} // namespace

SCCResult gprof::findSCCs(const CallGraph &G) {
  const size_t N = G.numNodes();
  constexpr uint32_t Unvisited = ~static_cast<uint32_t>(0);

  SCCResult Result;
  Result.ComponentOf.assign(N, Unvisited);

  std::vector<uint32_t> Index(N, Unvisited);
  std::vector<uint32_t> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<NodeId> Stack;
  std::vector<Frame> DFS;
  uint32_t NextIndex = 0;

  for (NodeId Root = 0; Root != N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;

    DFS.push_back({Root, 0});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!DFS.empty()) {
      Frame &F = DFS.back();
      NodeId V = F.Node;
      std::span<const ArcId> Arcs = G.outArcs(V);

      if (F.NextArc < Arcs.size()) {
        NodeId W = G.arc(Arcs[F.NextArc++]).To;
        if (Index[W] == Unvisited) {
          Index[W] = LowLink[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = true;
          DFS.push_back({W, 0});
        } else if (OnStack[W]) {
          LowLink[V] = std::min(LowLink[V], Index[W]);
        }
        continue;
      }

      // All successors explored: maybe emit a component, then return to
      // the parent frame.
      if (LowLink[V] == Index[V]) {
        std::vector<NodeId> Component;
        while (true) {
          NodeId W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Result.ComponentOf[W] =
              static_cast<uint32_t>(Result.Components.size());
          Component.push_back(W);
          if (W == V)
            break;
        }
        std::reverse(Component.begin(), Component.end());
        Result.Components.push_back(std::move(Component));
      }

      DFS.pop_back();
      if (!DFS.empty()) {
        NodeId Parent = DFS.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[V]);
      }
    }
  }
  return Result;
}

std::vector<uint32_t>
gprof::topologicalNumbers(const CallGraph &G, const SCCResult &SCCs) {
  // Tarjan emits components children-first, so component index + 1 already
  // has the property that arcs go from higher numbers to lower numbers.
  std::vector<uint32_t> Numbers(G.numNodes(), 0);
  for (NodeId V = 0; V != G.numNodes(); ++V)
    Numbers[V] = SCCs.ComponentOf[V] + 1;
  return Numbers;
}

bool gprof::checkTopologicalProperty(const CallGraph &G,
                                     const std::vector<uint32_t> &Numbers,
                                     const SCCResult &SCCs) {
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &Edge = G.arc(A);
    if (SCCs.ComponentOf[Edge.From] == SCCs.ComponentOf[Edge.To])
      continue;
    if (Numbers[Edge.From] <= Numbers[Edge.To])
      return false;
  }
  return true;
}
