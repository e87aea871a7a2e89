//===- graph/CallGraph.cpp ------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "graph/CallGraph.h"

#include "graph/Tarjan.h"

#include <algorithm>

using namespace gprof;

namespace {

bool arcKeyLess(const Arc &A, const Arc &B) {
  return A.From != B.From ? A.From < B.From : A.To < B.To;
}

/// Sorts \p Arcs by (From, To) and merges each run of one pair into its
/// first arc.
std::vector<Arc> sortAndMerge(std::vector<Arc> Arcs,
                              [[maybe_unused]] size_t NumNodes) {
  if (!std::is_sorted(Arcs.begin(), Arcs.end(), arcKeyLess))
    std::sort(Arcs.begin(), Arcs.end(), arcKeyLess);
  size_t Kept = 0;
  for (const Arc &A : Arcs) {
    assert(A.From < NumNodes && A.To < NumNodes && "node id out of range");
    if (Kept != 0 && Arcs[Kept - 1].From == A.From &&
        Arcs[Kept - 1].To == A.To) {
      Arcs[Kept - 1].Count += A.Count;
      Arcs[Kept - 1].Static &= A.Static;
      continue;
    }
    Arcs[Kept++] = A;
  }
  Arcs.resize(Kept);
  return Arcs;
}

} // namespace

CallGraph::CallGraph(std::vector<std::string> NodeNames,
                     std::vector<Arc> ArcList)
    : Names(std::move(NodeNames)),
      Arcs(sortAndMerge(std::move(ArcList), Names.size())),
      Out(Names.size(), static_cast<uint32_t>(Arcs.size()),
          [this](uint32_t A) { return Arcs[A].From; }),
      In(Names.size(), static_cast<uint32_t>(Arcs.size()),
         [this](uint32_t A) { return Arcs[A].To; }) {}

ArcId CallGraph::findArc(NodeId From, NodeId To) const {
  assert(From < Names.size() && "node id out of range");
  std::span<const ArcId> Ids = Out[From];
  auto It = std::lower_bound(
      Ids.begin(), Ids.end(), To,
      [&](ArcId A, NodeId T) { return Arcs[A].To < T; });
  if (It == Ids.end() || Arcs[*It].To != To)
    return InvalidNode;
  return *It;
}

NodeId CallGraph::findNode(const std::string &Name) const {
  for (NodeId N = 0; N != Names.size(); ++N)
    if (Names[N] == Name)
      return N;
  return InvalidNode;
}

uint64_t CallGraph::incomingCallCount(NodeId N) const {
  uint64_t Total = 0;
  for (ArcId A : inArcs(N))
    if (Arcs[A].From != N)
      Total += Arcs[A].Count;
  return Total;
}

bool CallGraph::isAcyclic() const {
  SCCResult SCCs = findSCCs(*this);
  if (SCCs.Components.size() != numNodes())
    return false;
  // Single-node components may still carry a self arc.
  for (NodeId N = 0; N != numNodes(); ++N)
    if (findArc(N, N) != InvalidNode)
      return false;
  return true;
}
