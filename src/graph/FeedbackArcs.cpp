//===- graph/FeedbackArcs.cpp ---------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "graph/FeedbackArcs.h"

#include "graph/Tarjan.h"

#include <algorithm>
#include <set>

using namespace gprof;

namespace {

/// A copy of \p G keeping the arcs whose ids satisfy \p Keep.
template <typename KeepFn>
CallGraph filterArcs(const CallGraph &G, KeepFn Keep) {
  std::vector<Arc> Arcs;
  for (ArcId A = 0; A != G.numArcs(); ++A)
    if (Keep(A))
      Arcs.push_back(G.arc(A));
  return CallGraph(G.nodeNames(), std::move(Arcs));
}

/// Collects arcs inside nontrivial SCCs of the graph restricted to arcs not
/// in \p Dropped.  None remain exactly when that graph has no cycle of
/// length >= 2 (self arcs are ignored throughout cycle breaking).
std::vector<ArcId> intraSCCArcs(const CallGraph &G,
                                const std::set<ArcId> &Dropped) {
  // Build a filtered copy, then map SCCs back through original arc ids.
  CallGraph Filtered =
      filterArcs(G, [&](ArcId A) { return Dropped.count(A) == 0; });
  SCCResult SCCs = findSCCs(Filtered);
  std::vector<ArcId> Candidates;
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    if (Dropped.count(A))
      continue;
    const Arc &Edge = G.arc(A);
    if (Edge.From == Edge.To)
      continue;
    if (SCCs.ComponentOf[Edge.From] == SCCs.ComponentOf[Edge.To])
      Candidates.push_back(A);
  }
  return Candidates;
}

/// Depth-limited search for a feedback arc set of size <= Depth.  Appends
/// the chosen arcs to \p Chosen.  Arcs are tried in increasing id order
/// (\p MinArc): every minimal feedback arc set can be discovered in
/// increasing order because each of its arcs lies on a cycle avoiding the
/// rest of the set, so the ordering restriction loses no solutions while
/// avoiding permutations of the same set.
bool searchExact(const CallGraph &G, std::set<ArcId> &Dropped,
                 std::vector<ArcId> &Chosen, unsigned Depth, ArcId MinArc) {
  // Only arcs still participating in some cycle are worth trying.
  std::vector<ArcId> Candidates = intraSCCArcs(G, Dropped);
  if (Candidates.empty())
    return true;
  if (Depth == 0)
    return false;
  for (ArcId A : Candidates) {
    if (A < MinArc)
      continue;
    Dropped.insert(A);
    Chosen.push_back(A);
    if (searchExact(G, Dropped, Chosen, Depth - 1, A + 1))
      return true;
    Chosen.pop_back();
    Dropped.erase(A);
  }
  return false;
}

} // namespace

CallGraph gprof::removeArcs(const CallGraph &G,
                            const std::vector<ArcId> &Removed) {
  std::set<ArcId> Dropped(Removed.begin(), Removed.end());
  return filterArcs(G, [&](ArcId A) { return Dropped.count(A) == 0; });
}

FeedbackArcResult gprof::selectFeedbackArcsGreedy(const CallGraph &G,
                                                  unsigned MaxArcs) {
  FeedbackArcResult Result;
  std::set<ArcId> Dropped;
  while (Result.RemovedArcs.size() < MaxArcs) {
    std::vector<ArcId> Candidates = intraSCCArcs(G, Dropped);
    if (Candidates.empty())
      break;
    // "there were just a few arcs -- with low traversal counts -- that
    // closed the cycles": prefer the cheapest arc to delete.
    ArcId Best = Candidates.front();
    for (ArcId A : Candidates)
      if (G.arc(A).Count < G.arc(Best).Count)
        Best = A;
    Dropped.insert(Best);
    Result.RemovedArcs.push_back(Best);
    Result.RemovedCount += G.arc(Best).Count;
  }
  Result.Acyclic = intraSCCArcs(G, Dropped).empty();
  return Result;
}

FeedbackArcResult gprof::selectFeedbackArcsExact(const CallGraph &G,
                                                 unsigned MaxArcs) {
  FeedbackArcResult Result;
  std::set<ArcId> Dropped;
  if (intraSCCArcs(G, Dropped).empty()) {
    Result.Acyclic = true;
    return Result;
  }
  for (unsigned Depth = 1; Depth <= MaxArcs; ++Depth) {
    std::vector<ArcId> Chosen;
    std::set<ArcId> Work;
    if (searchExact(G, Work, Chosen, Depth, /*MinArc=*/0)) {
      Result.RemovedArcs = Chosen;
      for (ArcId A : Chosen)
        Result.RemovedCount += G.arc(A).Count;
      Result.Acyclic = true;
      return Result;
    }
  }
  return Result;
}
