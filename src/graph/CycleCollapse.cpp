//===- graph/CycleCollapse.cpp --------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "graph/CycleCollapse.h"

#include "support/Format.h"

using namespace gprof;

CallGraph gprof::collapseCycles(const CallGraph &G, const SCCResult &SCCs) {
  std::vector<std::string> Names;
  Names.reserve(SCCs.Components.size());
  for (size_t C = 0; C != SCCs.Components.size(); ++C) {
    const std::vector<NodeId> &Members = SCCs.Components[C];
    Names.push_back(Members.size() == 1 ? G.nodeName(Members.front())
                                        : format("<cycle %zu>", C));
  }

  std::vector<Arc> Arcs;
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &Edge = G.arc(A);
    NodeId FromC = SCCs.ComponentOf[Edge.From];
    NodeId ToC = SCCs.ComponentOf[Edge.To];
    if (FromC == ToC)
      continue; // Calls among cycle members (and self calls) collapse away.
    Arcs.push_back({FromC, ToC, Edge.Count, Edge.Static});
  }
  return CallGraph(std::move(Names), std::move(Arcs));
}
