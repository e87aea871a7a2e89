//===- graph/CycleCollapse.h - Collapse SCCs into cycle nodes ------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collapses each strongly connected component into a single node, as in
/// paper §4: "Our solution collects all members of a cycle together,
/// summing the time and call counts for all members.  All calls into the
/// cycle are made to share the total time of the cycle, and all descendants
/// of the cycle propagate time into the cycle as a whole.  Calls among the
/// members of the cycle do not propagate any time."  The result (Figure 3)
/// is a DAG whose nodes are either singleton routines or whole cycles.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_GRAPH_CYCLECOLLAPSE_H
#define GPROF_GRAPH_CYCLECOLLAPSE_H

#include "graph/CallGraph.h"
#include "graph/Tarjan.h"

namespace gprof {

/// Collapses the SCCs of \p G (as computed by findSCCs) into a DAG.
///
/// Node K of the DAG is component K of \p SCCs, so SCCResult::ComponentOf
/// maps routines to DAG nodes and the ids are in reverse topological
/// order: arcs go from higher ids to lower ones, and a forward sweep over
/// ids visits callees before callers.  Node K's name is the routine's name
/// for a singleton component, or "<cycle K>" for a collapsed cycle.  Arc
/// counts are the sums of the inter-component arc counts they replace;
/// arcs internal to a component are dropped.
CallGraph collapseCycles(const CallGraph &G, const SCCResult &SCCs);

} // namespace gprof

#endif // GPROF_GRAPH_CYCLECOLLAPSE_H
