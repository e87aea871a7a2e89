//===- tests/graph_test.cpp - Unit & property tests for the graph library -===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "graph/CallGraph.h"
#include "graph/CycleCollapse.h"
#include "graph/FeedbackArcs.h"
#include "graph/Generators.h"
#include "graph/Tarjan.h"

#include <gtest/gtest.h>

#include <set>

using namespace gprof;

namespace {

/// Brute-force reachability for SCC cross-checks.
std::vector<std::vector<bool>> reachability(const CallGraph &G) {
  size_t N = G.numNodes();
  std::vector<std::vector<bool>> R(N, std::vector<bool>(N, false));
  for (NodeId S = 0; S != N; ++S) {
    std::vector<NodeId> Work{S};
    R[S][S] = true;
    while (!Work.empty()) {
      NodeId V = Work.back();
      Work.pop_back();
      for (ArcId A : G.outArcs(V)) {
        NodeId W = G.arc(A).To;
        if (!R[S][W]) {
          R[S][W] = true;
          Work.push_back(W);
        }
      }
    }
  }
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// CallGraph basics
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, BuildFromNamesAndArcs) {
  CallGraph G({"a", "b"}, {{0, 1, 3}});
  EXPECT_EQ(G.numNodes(), 2u);
  EXPECT_EQ(G.numArcs(), 1u);
  EXPECT_EQ(G.arc(0).Count, 3u);
  EXPECT_EQ(G.nodeName(0), "a");
  EXPECT_EQ(G.findNode("b"), 1u);
  EXPECT_EQ(G.findNode("zz"), InvalidNode);
}

TEST(CallGraphTest, DuplicateArcsMergeCounts) {
  CallGraph G({"a", "b", "c"}, {{0, 1, 2}, {0, 2, 1}, {0, 1, 5}});
  EXPECT_EQ(G.numArcs(), 2u);
  ArcId AB = G.findArc(0, 1);
  ASSERT_NE(AB, InvalidNode);
  EXPECT_EQ(G.arc(AB).Count, 7u);
  EXPECT_EQ(G.outArcs(0).size(), 2u);
  EXPECT_EQ(G.inArcs(1).size(), 1u);
}

TEST(CallGraphTest, StaticFlagClearedByDynamicCount) {
  // A static copy and a dynamic copy of one pair, in either order, give a
  // dynamic arc that keeps the dynamic count.
  for (bool StaticFirst : {true, false}) {
    std::vector<Arc> Arcs{{0, 1, 0, /*Static=*/true}, {0, 1, 4}};
    if (!StaticFirst)
      std::swap(Arcs[0], Arcs[1]);
    CallGraph G({"a", "b"}, Arcs);
    ASSERT_EQ(G.numArcs(), 1u);
    EXPECT_FALSE(G.arc(0).Static);
    EXPECT_EQ(G.arc(0).Count, 4u);
  }
}

TEST(CallGraphTest, StaticFlagKeptWhenEveryCopyIsStatic) {
  CallGraph G({"a", "b"}, {{0, 1, 0, true}, {0, 1, 0, true}});
  ASSERT_EQ(G.numArcs(), 1u);
  EXPECT_TRUE(G.arc(0).Static);
  EXPECT_EQ(G.arc(0).Count, 0u);
}

TEST(CallGraphTest, ArcIdsFollowFromToOrder) {
  // Given out of order, arc ids come out sorted by (From, To), and each
  // out-slice is the contiguous run of its caller's arcs.
  CallGraph G({"a", "b", "c", "d"},
              {{2, 0, 1}, {0, 3, 2}, {1, 2, 3}, {0, 1, 4}, {2, 1, 5}});
  std::vector<std::pair<NodeId, NodeId>> Order;
  for (ArcId A = 0; A != G.numArcs(); ++A)
    Order.emplace_back(G.arc(A).From, G.arc(A).To);
  std::vector<std::pair<NodeId, NodeId>> Want{
      {0, 1}, {0, 3}, {1, 2}, {2, 0}, {2, 1}};
  EXPECT_EQ(Order, Want);
  for (NodeId N = 0; N != G.numNodes(); ++N)
    for (ArcId A : G.outArcs(N))
      EXPECT_EQ(G.arc(A).From, N);
  EXPECT_EQ(std::vector<ArcId>(G.outArcs(2).begin(), G.outArcs(2).end()),
            (std::vector<ArcId>{3, 4}));
}

TEST(CallGraphTest, InArcsOrderedByCaller) {
  CallGraph G({"a", "b", "c", "d"},
              {{3, 0, 1}, {1, 0, 1}, {2, 0, 1}, {0, 0, 1}, {3, 1, 1}});
  std::vector<NodeId> Callers;
  for (ArcId A : G.inArcs(0)) {
    EXPECT_EQ(G.arc(A).To, 0u);
    Callers.push_back(G.arc(A).From);
  }
  EXPECT_EQ(Callers, (std::vector<NodeId>{0, 1, 2, 3}));
  ASSERT_EQ(G.inArcs(1).size(), 1u);
  EXPECT_EQ(G.arc(G.inArcs(1)[0]).From, 3u);
}

TEST(CallGraphTest, FindArcOnAbsentArc) {
  CallGraph G({"a", "b", "c"}, {{0, 2, 1}, {2, 0, 1}});
  EXPECT_EQ(G.findArc(0, 1), InvalidNode); // Caller has other arcs.
  EXPECT_EQ(G.findArc(1, 0), InvalidNode); // Caller has no arcs.
  EXPECT_EQ(G.findArc(2, 2), InvalidNode);
  EXPECT_EQ(G.findArc(0, 2), 0u);
  EXPECT_EQ(G.findArc(2, 0), 1u);
}

TEST(CallGraphTest, IsolatedAndZeroArcGraphs) {
  CallGraph Empty;
  EXPECT_EQ(Empty.numNodes(), 0u);
  EXPECT_EQ(Empty.numArcs(), 0u);
  EXPECT_TRUE(Empty.isAcyclic());
  EXPECT_EQ(findSCCs(Empty).Components.size(), 0u);

  CallGraph NoArcs({"a", "b", "c"}, {});
  EXPECT_EQ(NoArcs.numArcs(), 0u);
  for (NodeId N = 0; N != NoArcs.numNodes(); ++N) {
    EXPECT_TRUE(NoArcs.outArcs(N).empty());
    EXPECT_TRUE(NoArcs.inArcs(N).empty());
    EXPECT_EQ(NoArcs.incomingCallCount(N), 0u);
  }
  EXPECT_TRUE(NoArcs.isAcyclic());

  // Node 1 is isolated between two connected nodes.
  CallGraph Isolated({"a", "b", "c"}, {{0, 2, 4}});
  EXPECT_TRUE(Isolated.outArcs(1).empty());
  EXPECT_TRUE(Isolated.inArcs(1).empty());
  EXPECT_EQ(Isolated.outArcs(0).size(), 1u);
  EXPECT_EQ(Isolated.inArcs(2).size(), 1u);
  EXPECT_TRUE(Isolated.outArcs(2).empty());
  EXPECT_EQ(Isolated.incomingCallCount(2), 4u);
}

TEST(CallGraphTest, IncomingCallCountExcludesSelfArcs) {
  CallGraph G({"a", "b"}, {{0, 1, 6}, {1, 1, 4}}); // b recurses.
  EXPECT_EQ(G.incomingCallCount(1), 6u);
}

TEST(CallGraphTest, AcyclicityDetection) {
  EXPECT_TRUE(CallGraph({"a", "b"}, {{0, 1, 1}}).isAcyclic());
  EXPECT_FALSE(CallGraph({"a", "b"}, {{0, 1, 1}, {1, 0, 1}}).isAcyclic());
}

TEST(CallGraphTest, SelfArcMakesCyclic) {
  EXPECT_FALSE(CallGraph({"a"}, {{0, 0, 1}}).isAcyclic());
}

//===----------------------------------------------------------------------===//
// Tarjan SCC — the Figure 1 example
//===----------------------------------------------------------------------===//

namespace {

/// Builds the call graph of paper Figure 1: a root calling through two
/// levels into shared leaves.  Nodes are created in an order unrelated to
/// topological order to exercise the numbering.  With \p Figure2, nodes 3
/// and 7 are also mutually recursive.
///
/// Shape (10 nodes): 10 is the root; arcs flow downward:
///   10 -> 9, 10 -> 8; 9 -> 7, 9 -> 6; 8 -> 6, 8 -> 5;
///   7 -> 4, 7 -> 3; 6 -> 3; 5 -> 3, 5 -> 2; 3 -> 1; 4 -> 1; 2 -> 1.
CallGraph makeFigure1Graph(std::vector<NodeId> &ByNumber,
                           bool Figure2 = false) {
  std::vector<std::string> Names;
  ByNumber.assign(11, InvalidNode);
  // Deliberately scrambled creation order.
  for (uint32_t Number : {3u, 10u, 1u, 7u, 5u, 9u, 2u, 8u, 6u, 4u}) {
    ByNumber[Number] = static_cast<NodeId>(Names.size());
    Names.push_back("n" + std::to_string(Number));
  }
  std::vector<gprof::Arc> Arcs;
  auto Arc = [&](uint32_t From, uint32_t To) {
    Arcs.push_back({ByNumber[From], ByNumber[To], 1});
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
  if (Figure2)
    Arc(3, 7);
  return CallGraph(std::move(Names), std::move(Arcs));
}

} // namespace

TEST(TarjanTest, Figure1AllSingletons) {
  std::vector<NodeId> ByNumber;
  CallGraph G = makeFigure1Graph(ByNumber);
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.Components.size(), 10u);
  EXPECT_EQ(SCCs.numNontrivialComponents(), 0u);
}

TEST(TarjanTest, Figure1TopologicalProperty) {
  std::vector<NodeId> ByNumber;
  CallGraph G = makeFigure1Graph(ByNumber);
  SCCResult SCCs = findSCCs(G);
  std::vector<uint32_t> Numbers = topologicalNumbers(G, SCCs);
  EXPECT_TRUE(checkTopologicalProperty(G, Numbers, SCCs));
  // Every arc goes from a higher to a lower number, as in Figure 1.
  for (ArcId A = 0; A != G.numArcs(); ++A)
    EXPECT_GT(Numbers[G.arc(A).From], Numbers[G.arc(A).To]);
}

TEST(TarjanTest, Figure2CycleDetected) {
  // Figure 2 makes nodes 3 and 7 mutually recursive.
  std::vector<NodeId> ByNumber;
  CallGraph G = makeFigure1Graph(ByNumber, /*Figure2=*/true);
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.numNontrivialComponents(), 1u);
  EXPECT_EQ(SCCs.ComponentOf[ByNumber[3]], SCCs.ComponentOf[ByNumber[7]]);
  EXPECT_EQ(SCCs.Components.size(), 9u);
}

TEST(TarjanTest, SelfLoopIsSingletonComponent) {
  CallGraph G({"a"}, {{0, 0, 5}});
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.Components.size(), 1u);
  EXPECT_EQ(SCCs.numNontrivialComponents(), 0u);
}

TEST(TarjanTest, DisconnectedGraphCovered) {
  CallGraph G({"a", "b", "c"}, {});
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.Components.size(), 3u);
  std::set<uint32_t> Seen(SCCs.ComponentOf.begin(), SCCs.ComponentOf.end());
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(TarjanTest, DeepChainNoStackOverflow) {
  // 200k-node chain: a recursive Tarjan would blow the stack here.
  const uint32_t N = 200000;
  std::vector<std::string> Names;
  std::vector<Arc> Arcs;
  for (uint32_t I = 0; I != N; ++I)
    Names.push_back("f" + std::to_string(I));
  for (uint32_t I = 0; I + 1 != N; ++I)
    Arcs.push_back({I, I + 1, 1});
  CallGraph G(std::move(Names), std::move(Arcs));
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.Components.size(), N);
  std::vector<uint32_t> Numbers = topologicalNumbers(G, SCCs);
  EXPECT_TRUE(checkTopologicalProperty(G, Numbers, SCCs));
}

TEST(TarjanTest, BigCycleIsOneComponent) {
  const uint32_t N = 1000;
  std::vector<std::string> Names;
  std::vector<Arc> Arcs;
  for (uint32_t I = 0; I != N; ++I)
    Names.push_back("f" + std::to_string(I));
  for (uint32_t I = 0; I != N; ++I)
    Arcs.push_back({I, (I + 1) % N, 1});
  CallGraph G(std::move(Names), std::move(Arcs));
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.Components.size(), 1u);
  EXPECT_EQ(SCCs.Components[0].size(), N);
}

//===----------------------------------------------------------------------===//
// Property tests: SCC vs reachability, topological numbering on random
// graphs
//===----------------------------------------------------------------------===//

class TarjanPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TarjanPropertyTest, SCCMatchesMutualReachability) {
  CallGraph G = makeRandomGraph(/*NumNodes=*/40, /*NumArcs=*/90,
                                /*MaxCount=*/10, /*SelfArcProb=*/0.05,
                                /*Seed=*/GetParam());
  SCCResult SCCs = findSCCs(G);
  auto R = reachability(G);
  for (NodeId A = 0; A != G.numNodes(); ++A)
    for (NodeId B = 0; B != G.numNodes(); ++B) {
      bool SameComponent = SCCs.ComponentOf[A] == SCCs.ComponentOf[B];
      bool MutuallyReachable = R[A][B] && R[B][A];
      EXPECT_EQ(SameComponent, MutuallyReachable)
          << "nodes " << A << " and " << B << " seed " << GetParam();
    }
}

TEST_P(TarjanPropertyTest, TopologicalNumbersValid) {
  CallGraph G = makeRandomGraph(60, 150, 10, 0.05, GetParam() + 1000);
  SCCResult SCCs = findSCCs(G);
  std::vector<uint32_t> Numbers = topologicalNumbers(G, SCCs);
  EXPECT_TRUE(checkTopologicalProperty(G, Numbers, SCCs));
}

TEST_P(TarjanPropertyTest, DagsHaveOnlySingletons) {
  CallGraph G = makeRandomDag(50, 120, 10, GetParam() + 2000);
  SCCResult SCCs = findSCCs(G);
  EXPECT_EQ(SCCs.numNontrivialComponents(), 0u);
  EXPECT_TRUE(G.isAcyclic());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TarjanPropertyTest,
                         testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Cycle collapse
//===----------------------------------------------------------------------===//

TEST(CycleCollapseTest, Figure3Shape) {
  std::vector<NodeId> ByNumber;
  CallGraph G = makeFigure1Graph(ByNumber, /*Figure2=*/true);
  SCCResult SCCs = findSCCs(G);
  CallGraph Dag = collapseCycles(G, SCCs);

  // 9 condensed nodes (10 routines, one 2-cycle).
  EXPECT_EQ(Dag.numNodes(), 9u);
  EXPECT_TRUE(Dag.isAcyclic());

  NodeId CycleNode = SCCs.ComponentOf[ByNumber[3]];
  EXPECT_EQ(CycleNode, SCCs.ComponentOf[ByNumber[7]]);
  EXPECT_EQ(SCCs.Components[CycleNode].size(), 2u);
  EXPECT_EQ(Dag.nodeName(CycleNode),
            "<cycle " + std::to_string(CycleNode) + ">");
}

TEST(CycleCollapseTest, InterArcCountsMerge) {
  const NodeId A = 0, B = 1, C = 2, D = 3;
  // B and C form a cycle; A calls both members.
  CallGraph G({"a", "b", "c", "d"},
              {{B, C, 10}, {C, B, 20}, {A, B, 3}, {A, C, 4}, {C, D, 5}});
  SCCResult SCCs = findSCCs(G);
  CallGraph Dag = collapseCycles(G, SCCs);

  EXPECT_EQ(Dag.numNodes(), 3u);
  NodeId CycleNode = SCCs.ComponentOf[B];
  ArcId IntoCycle = Dag.findArc(SCCs.ComponentOf[A], CycleNode);
  ASSERT_NE(IntoCycle, InvalidNode);
  EXPECT_EQ(Dag.arc(IntoCycle).Count, 7u); // 3 + 4 merged.
  ArcId OutOfCycle = Dag.findArc(CycleNode, SCCs.ComponentOf[D]);
  ASSERT_NE(OutOfCycle, InvalidNode);
  EXPECT_EQ(Dag.arc(OutOfCycle).Count, 5u);
}

TEST(CycleCollapseTest, CondensedOrderIsReverseTopological) {
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    CallGraph G = makeRandomGraph(50, 140, 10, 0.05, Seed + 3000);
    SCCResult SCCs = findSCCs(G);
    CallGraph Dag = collapseCycles(G, SCCs);
    for (ArcId A = 0; A != Dag.numArcs(); ++A)
      EXPECT_GT(Dag.arc(A).From, Dag.arc(A).To);
  }
}

//===----------------------------------------------------------------------===//
// Feedback arc selection
//===----------------------------------------------------------------------===//

TEST(FeedbackArcsTest, SimpleTwoCycle) {
  // The cheap back arc b -> a should be removed.
  CallGraph G({"a", "b"}, {{0, 1, 100}, {1, 0, 2}});
  FeedbackArcResult R = selectFeedbackArcsGreedy(G, 10);
  EXPECT_TRUE(R.Acyclic);
  ASSERT_EQ(R.RemovedArcs.size(), 1u);
  const Arc &Removed = G.arc(R.RemovedArcs[0]);
  EXPECT_EQ(std::make_pair(Removed.From, Removed.To),
            std::make_pair(NodeId(1), NodeId(0)));
  EXPECT_EQ(Removed.Count, 2u);
  EXPECT_EQ(R.RemovedCount, 2u);
}

TEST(FeedbackArcsTest, BoundStopsGreedy) {
  // Two independent 2-cycles but a budget of one arc.
  CallGraph G({"a", "b", "c", "d"},
              {{0, 1, 10}, {1, 0, 1}, {2, 3, 10}, {3, 2, 1}});
  FeedbackArcResult R = selectFeedbackArcsGreedy(G, 1);
  EXPECT_FALSE(R.Acyclic);
  EXPECT_EQ(R.RemovedArcs.size(), 1u);
}

TEST(FeedbackArcsTest, AcyclicInputRemovesNothing) {
  CallGraph G = makeRandomDag(30, 60, 5, 42);
  FeedbackArcResult R = selectFeedbackArcsGreedy(G, 10);
  EXPECT_TRUE(R.Acyclic);
  EXPECT_TRUE(R.RemovedArcs.empty());
}

TEST(FeedbackArcsTest, SelfArcsIgnored) {
  CallGraph G({"a"}, {{0, 0, 50}});
  FeedbackArcResult R = selectFeedbackArcsGreedy(G, 10);
  EXPECT_TRUE(R.Acyclic); // Self arcs never participate.
  EXPECT_TRUE(R.RemovedArcs.empty());
}

TEST(FeedbackArcsTest, ExactFindsMinimum) {
  // A 4-cycle with a chord: one removal suffices, and the exact search
  // must find a single-arc solution.
  CallGraph G({"n0", "n1", "n2", "n3"},
              {{0, 1, 5}, {1, 2, 5}, {2, 3, 5}, {3, 0, 5}});
  FeedbackArcResult R = selectFeedbackArcsExact(G, 4);
  EXPECT_TRUE(R.Acyclic);
  EXPECT_EQ(R.RemovedArcs.size(), 1u);
}

TEST(FeedbackArcsTest, ExactRespectsBound) {
  // Two disjoint cycles need two removals; a bound of one must fail.
  CallGraph G({"a", "b", "c", "d"},
              {{0, 1, 1}, {1, 0, 1}, {2, 3, 1}, {3, 2, 1}});
  FeedbackArcResult R = selectFeedbackArcsExact(G, 1);
  EXPECT_FALSE(R.Acyclic);
  FeedbackArcResult R2 = selectFeedbackArcsExact(G, 2);
  EXPECT_TRUE(R2.Acyclic);
  EXPECT_EQ(R2.RemovedArcs.size(), 2u);
}

TEST(FeedbackArcsTest, GreedyNeverWorseThanExactByMuchOnSmallGraphs) {
  for (uint64_t Seed = 0; Seed != 6; ++Seed) {
    CallGraph G = makeRandomGraph(8, 14, 20, 0.0, Seed + 500);
    FeedbackArcResult Exact = selectFeedbackArcsExact(G, 8);
    FeedbackArcResult Greedy = selectFeedbackArcsGreedy(G, 14);
    ASSERT_TRUE(Exact.Acyclic);
    ASSERT_TRUE(Greedy.Acyclic);
    EXPECT_GE(Greedy.RemovedArcs.size(), Exact.RemovedArcs.size());
  }
}

TEST(FeedbackArcsTest, RemoveArcsProducesFilteredCopy) {
  const NodeId A = 0, B = 1;
  CallGraph G({"a", "b"}, {{A, B, 3}, {B, A, 4}});
  CallGraph H = removeArcs(G, {G.findArc(A, B)});
  EXPECT_EQ(H.numArcs(), 1u);
  EXPECT_EQ(H.findArc(A, B), InvalidNode);
  ArcId BA = H.findArc(B, A);
  ASSERT_NE(BA, InvalidNode);
  EXPECT_EQ(H.arc(BA).Count, 4u);
}

TEST(FeedbackArcsTest, KernelLikeGraphBreaksWithFewArcs) {
  CallGraph G = makeKernelLikeGraph(4, 6, 3, 77);
  SCCResult Before = findSCCs(G);
  // The back arcs close at most a few cycles; the greedy heuristic should
  // restore acyclicity within the back-arc budget.
  FeedbackArcResult R = selectFeedbackArcsGreedy(G, 3);
  if (Before.numNontrivialComponents() == 0) {
    EXPECT_TRUE(R.RemovedArcs.empty());
  } else {
    EXPECT_TRUE(R.Acyclic);
    EXPECT_LE(R.RemovedArcs.size(), 3u);
    // Removed arcs are the low-count ones (info loss is small).
    for (ArcId A : R.RemovedArcs)
      EXPECT_LE(G.arc(A).Count, 5u);
  }
}

//===----------------------------------------------------------------------===//
// Generators sanity
//===----------------------------------------------------------------------===//

TEST(GeneratorsTest, DagIsAcyclic) {
  for (uint64_t Seed = 0; Seed != 5; ++Seed)
    EXPECT_TRUE(makeRandomDag(30, 80, 10, Seed).isAcyclic());
}

TEST(GeneratorsTest, LayeredGraphIsAcyclicAndRooted) {
  CallGraph G = makeLayeredGraph(5, 8, 3, 9);
  EXPECT_TRUE(G.isAcyclic());
  NodeId Main = G.findNode("main");
  ASSERT_NE(Main, InvalidNode);
  EXPECT_FALSE(G.outArcs(Main).empty());
  EXPECT_TRUE(G.inArcs(Main).empty());
}

TEST(GeneratorsTest, DeterministicForSameSeed) {
  CallGraph A = makeRandomGraph(20, 40, 10, 0.1, 5);
  CallGraph B = makeRandomGraph(20, 40, 10, 0.1, 5);
  ASSERT_EQ(A.numArcs(), B.numArcs());
  for (ArcId I = 0; I != A.numArcs(); ++I) {
    EXPECT_EQ(A.arc(I).From, B.arc(I).From);
    EXPECT_EQ(A.arc(I).To, B.arc(I).To);
    EXPECT_EQ(A.arc(I).Count, B.arc(I).Count);
  }
}
