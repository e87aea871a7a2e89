//===- tests/propagation_test.cpp - Deeper time-propagation properties ----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for time propagation on graphs *with* cycles — the case
/// the simple recurrence cannot handle and the reason the paper reaches
/// for Tarjan.  The governing invariant is conservation: every sampled
/// second is attributed somewhere, and all of it flows to the entry
/// points (spontaneously activated routines), whether the paths pass
/// through cycles or not.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "graph/CallGraph.h"
#include "graph/Generators.h"
#include "graph/Tarjan.h"
#include "support/Random.h"
#include "tests/support/SyntheticProfile.h"

#include <gtest/gtest.h>

#include <set>

using namespace gprof;

//===----------------------------------------------------------------------===//
// Hand-checked multi-cycle scenarios
//===----------------------------------------------------------------------===//

TEST(CyclePropagationTest, CycleCallingACycle) {
  // main -> {a,b} cycle -> {c,d} cycle -> leaf.  Time flows leaf -> inner
  // cycle -> outer cycle -> main, whole cycles at a time.
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t A = B.addFunction("a");
  uint32_t Bf = B.addFunction("b");
  uint32_t C = B.addFunction("c");
  uint32_t D = B.addFunction("d");
  uint32_t Leaf = B.addFunction("leaf");
  B.addSpontaneous(Main);
  B.addCall(Main, A, 4);
  B.addCall(A, Bf, 10);
  B.addCall(Bf, A, 9);
  B.addCall(Bf, C, 6);
  B.addCall(C, D, 20);
  B.addCall(D, C, 19);
  B.addCall(D, Leaf, 8);
  B.setSelfSeconds(A, 1.0);
  B.setSelfSeconds(Bf, 1.0);
  B.setSelfSeconds(C, 2.0);
  B.setSelfSeconds(D, 2.0);
  B.setSelfSeconds(Leaf, 3.0);
  ProfileReport R = cantFail(B.analyze());

  ASSERT_EQ(R.Cycles.size(), 2u);
  // Inner cycle {c,d}: self 4.0, inherits leaf's 3.0.
  // Outer cycle {a,b}: self 2.0, inherits all of inner (sole caller).
  uint32_t InnerNum = R.Functions[R.findFunction("c")].CycleNumber;
  uint32_t OuterNum = R.Functions[R.findFunction("a")].CycleNumber;
  ASSERT_NE(InnerNum, 0u);
  ASSERT_NE(OuterNum, 0u);
  ASSERT_NE(InnerNum, OuterNum);
  const CycleEntry &Inner = R.Cycles[InnerNum - 1];
  const CycleEntry &Outer = R.Cycles[OuterNum - 1];
  EXPECT_NEAR(Inner.SelfTime, 4.0, 1e-9);
  EXPECT_NEAR(Inner.ChildTime, 3.0, 1e-9);
  EXPECT_NEAR(Outer.SelfTime, 2.0, 1e-9);
  EXPECT_NEAR(Outer.ChildTime, 7.0, 1e-9);
  // main gets everything.
  EXPECT_NEAR(R.Functions[Main].totalTime(), 9.0, 1e-9);
  (void)Main;
}

TEST(CyclePropagationTest, CycleTimeSharedByArcCounts) {
  // Two callers into a 3-cycle with 1/4 and 3/4 of the external calls.
  SyntheticProfileBuilder B(100);
  uint32_t P1 = B.addFunction("p1");
  uint32_t P2 = B.addFunction("p2");
  uint32_t X = B.addFunction("x");
  uint32_t Y = B.addFunction("y");
  uint32_t Z = B.addFunction("z");
  B.addSpontaneous(P1);
  B.addSpontaneous(P2);
  B.addCall(P1, X, 1);
  B.addCall(P2, Y, 3);
  B.addCall(X, Y, 5);
  B.addCall(Y, Z, 5);
  B.addCall(Z, X, 4);
  B.setSelfSeconds(X, 2.0);
  B.setSelfSeconds(Y, 1.0);
  B.setSelfSeconds(Z, 1.0);
  ProfileReport R = cantFail(B.analyze());
  ASSERT_EQ(R.Cycles.size(), 1u);
  EXPECT_EQ(R.Cycles[0].ExternalCalls, 4u);
  EXPECT_NEAR(R.Functions[P1].ChildTime, 1.0, 1e-9); // 1/4 of 4.0
  EXPECT_NEAR(R.Functions[P2].ChildTime, 3.0, 1e-9); // 3/4 of 4.0
}

TEST(CyclePropagationTest, SelfArcInsideCycleStillIgnored) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t A = B.addFunction("a");
  uint32_t C = B.addFunction("c");
  B.addSpontaneous(Main);
  B.addCall(Main, A, 2);
  B.addCall(A, C, 3);
  B.addCall(C, A, 2);
  B.addCall(A, A, 50); // Self recursion of a cycle member.
  B.setSelfSeconds(A, 1.0);
  B.setSelfSeconds(C, 1.0);
  ProfileReport R = cantFail(B.analyze());
  ASSERT_EQ(R.Cycles.size(), 1u);
  // Self calls appear in the member's entry, not the cycle's external
  // count.
  EXPECT_EQ(R.Cycles[0].ExternalCalls, 2u);
  EXPECT_EQ(R.Functions[A].SelfCalls, 50u);
  EXPECT_NEAR(R.Functions[Main].ChildTime, 2.0, 1e-9);
  (void)Main;
}

//===----------------------------------------------------------------------===//
// Property: conservation on arbitrary random graphs (cycles included)
//===----------------------------------------------------------------------===//

class CycleConservationTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CycleConservationTest, AllTimeReachesTheEntryPoints) {
  CallGraph G = makeRandomGraph(/*NumNodes=*/30, /*NumArcs=*/70,
                                /*MaxCount=*/12, /*SelfArcProb=*/0.08,
                                GetParam());
  SplitMix64 Rng(GetParam() * 13 + 5);

  SyntheticProfileBuilder B(100);
  for (NodeId N = 0; N != G.numNodes(); ++N) {
    B.addFunction(G.nodeName(N));
    B.setSelfSeconds(static_cast<uint32_t>(N),
                     static_cast<double>(Rng.nextInRange(0, 100)) / 100.0);
  }
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &E = G.arc(A);
    B.addCall(E.From, E.To, E.Count);
  }

  // Entry points: one spontaneous activation for every node in a
  // condensation root (no callers outside its own component), so all
  // attributed time has somewhere to drain.
  SCCResult SCCs = findSCCs(G);
  std::set<uint32_t> RootComponents;
  for (uint32_t Comp = 0; Comp != SCCs.Components.size(); ++Comp)
    RootComponents.insert(Comp);
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &E = G.arc(A);
    if (SCCs.ComponentOf[E.From] != SCCs.ComponentOf[E.To])
      RootComponents.erase(SCCs.ComponentOf[E.To]);
  }
  std::vector<NodeId> Entries;
  for (uint32_t Comp : RootComponents) {
    NodeId N = SCCs.Components[Comp].front();
    B.addSpontaneous(N);
    Entries.push_back(N);
  }

  ProfileReport R = cantFail(B.analyze());

  // Conservation: the entry nodes' totals sum to the whole program.
  // For an entry inside a cycle, the cycle's total is the right unit.
  double EntryTotal = 0.0;
  std::set<uint32_t> CountedCycles;
  for (NodeId N : Entries) {
    const FunctionEntry &F = R.Functions[N];
    if (F.CycleNumber != 0) {
      if (CountedCycles.insert(F.CycleNumber).second)
        EntryTotal += R.Cycles[F.CycleNumber - 1].totalTime();
    } else {
      EntryTotal += F.totalTime();
    }
  }
  EXPECT_NEAR(EntryTotal, R.TotalTime, 1e-6) << "seed " << GetParam();

  // Sanity: no negative or NaN times anywhere.
  for (const FunctionEntry &F : R.Functions) {
    EXPECT_GE(F.SelfTime, 0.0);
    EXPECT_GE(F.ChildTime, 0.0);
    EXPECT_EQ(F.ChildTime, F.ChildTime); // NaN check.
  }
  for (const ReportArc &A : R.Arcs) {
    EXPECT_GE(A.PropSelf, 0.0);
    EXPECT_GE(A.PropChild, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleConservationTest,
                         testing::Range<uint64_t>(0, 14));
