//===- bench/bench_fig2_cycle_collapse.cpp - E2: Figures 2 and 3 ----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 2 modifies Figure 1 by making the routines labelled 3 and 7
/// mutually recursive; Figure 3 shows the graph after the resulting cycle
/// is collapsed into a single node and renumbered (9 nodes).  This bench
/// reproduces the collapse: cycle membership, the condensed DAG's size,
/// and the renumbering property.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "graph/CallGraph.h"
#include "graph/CycleCollapse.h"
#include "graph/Tarjan.h"

#include <cstdio>

using namespace gprof;
using namespace gprof::bench;

namespace {

CallGraph makeFigure2(std::vector<NodeId> &PaperNumber) {
  std::vector<std::string> Names;
  PaperNumber.assign(11, InvalidNode);
  for (uint32_t N : {6u, 1u, 8u, 10u, 2u, 4u, 9u, 3u, 7u, 5u}) {
    PaperNumber[N] = static_cast<NodeId>(Names.size());
    Names.push_back("node" + std::to_string(N));
  }
  std::vector<gprof::Arc> Arcs;
  auto Arc = [&](uint32_t F, uint32_t T) {
    Arcs.push_back({PaperNumber[F], PaperNumber[T], 1});
  };
  Arc(10, 9);
  Arc(10, 8);
  Arc(9, 7);
  Arc(9, 6);
  Arc(8, 6);
  Arc(8, 5);
  Arc(7, 4);
  Arc(7, 3);
  Arc(6, 3);
  Arc(5, 3);
  Arc(5, 2);
  Arc(3, 1);
  Arc(4, 1);
  Arc(2, 1);
  Arc(3, 7); // Figure 2's addition: 3 and 7 are mutually recursive.
  return CallGraph(std::move(Names), std::move(Arcs));
}

} // namespace

int main() {
  banner("E2 (Figures 2-3)",
         "cycle {3,7} discovered, collapsed, and renumbered");

  std::vector<NodeId> PaperNumber;
  CallGraph G = makeFigure2(PaperNumber);
  SCCResult SCCs = findSCCs(G);
  CallGraph Dag = collapseCycles(G, SCCs);

  std::printf("\n  original graph: %zu nodes, %zu arcs\n", G.numNodes(),
              G.numArcs());
  std::printf("  condensed graph: %zu nodes, %zu arcs\n",
              Dag.numNodes(), Dag.numArcs());
  std::printf("\n  condensed node members (topological number: members)\n");
  for (NodeId C = 0; C != Dag.numNodes(); ++C) {
    std::string Members;
    for (NodeId M : SCCs.Components[C])
      Members += " " + G.nodeName(M);
    std::printf("    %2u:%s%s\n", C + 1, Members.c_str(),
                SCCs.Components[C].size() > 1 ? "   <- collapsed cycle"
                                              : "");
  }

  std::printf("\nchecks against the paper:\n");
  bool AllOk = true;
  AllOk &= check(SCCs.numNontrivialComponents() == 1,
                 "exactly one strongly connected component is nontrivial");
  NodeId CycleNode = SCCs.ComponentOf[PaperNumber[3]];
  AllOk &= check(CycleNode == SCCs.ComponentOf[PaperNumber[7]] &&
                     SCCs.Components[CycleNode].size() == 2,
                 "the cycle is exactly {node3, node7} (Figure 2)");
  AllOk &= check(Dag.numNodes() == 9,
                 "collapsing yields 9 nodes (Figure 3)");
  AllOk &= check(Dag.isAcyclic(),
                 "the collapsed graph is acyclic and can be numbered");
  bool OrderOk = true;
  for (ArcId A = 0; A != Dag.numArcs(); ++A)
    OrderOk &= Dag.arc(A).From > Dag.arc(A).To;
  AllOk &= check(OrderOk,
                 "renumbered arcs all go from higher to lower (Figure 3)");
  return AllOk ? 0 : 1;
}
