//===- bench/bench_fig1_topo.cpp - E1: regenerate paper Figure 1 ----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 1 of the paper shows a 10-routine call graph topologically
/// numbered so that "all edges in the graph go from higher numbered nodes
/// to lower numbered nodes", the order in which a single propagation sweep
/// can move time from callees to callers.  This bench rebuilds that exact
/// graph (with scrambled node creation order, so nothing is accidental),
/// runs the Tarjan-based numbering, prints the assignment, and verifies
/// the figure's defining properties.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "graph/CallGraph.h"
#include "graph/Tarjan.h"

#include <cstdio>

using namespace gprof;
using namespace gprof::bench;

namespace {

/// The Figure 1 graph; PaperNumber[i] is the node the figure labels i.
CallGraph makeFigure1(std::vector<NodeId> &PaperNumber) {
  std::vector<std::string> Names;
  PaperNumber.assign(11, InvalidNode);
  for (uint32_t N : {4u, 2u, 9u, 1u, 10u, 3u, 6u, 8u, 5u, 7u}) {
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
  return CallGraph(std::move(Names), std::move(Arcs));
}

} // namespace

int main() {
  banner("E1 (Figure 1)", "topological numbering of the example call graph");

  std::vector<NodeId> PaperNumber;
  CallGraph G = makeFigure1(PaperNumber);
  SCCResult SCCs = findSCCs(G);
  std::vector<uint32_t> Ours = topologicalNumbers(G, SCCs);

  std::printf("\n  figure's label   our topological number\n");
  for (uint32_t N = 1; N <= 10; ++N)
    std::printf("        %2u                %2u\n", N,
                Ours[PaperNumber[N]]);

  std::printf("\nchecks against the paper:\n");
  bool AllOk = true;
  AllOk &= check(checkTopologicalProperty(G, Ours, SCCs),
                 "every arc goes from a higher number to a lower number");
  AllOk &= check(SCCs.numNontrivialComponents() == 0,
                 "the Figure 1 graph is acyclic (no nontrivial SCCs)");
  AllOk &= check(Ours[PaperNumber[1]] == 1,
                 "the shared leaf receives number 1, as in the figure");
  AllOk &= check(Ours[PaperNumber[10]] == 10,
                 "the root receives number 10, as in the figure");

  // The numbering must let one forward sweep (1..10) see every callee
  // before its caller.
  bool SweepOk = true;
  for (ArcId A = 0; A != G.numArcs(); ++A)
    SweepOk &= Ours[G.arc(A).To] < Ours[G.arc(A).From];
  AllOk &= check(SweepOk,
                 "a single sweep in number order visits callees first "
                 "(one traversal per arc, paper section 4)");

  return AllOk ? 0 : 1;
}
