//===- tests/cct_test.cpp - Differential oracle for the CCT recorder ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the lock-free per-thread CctRecorder against an obviously-correct
/// std::map reference: both replay the same randomized call/return/tick
/// streams and must produce node-for-node identical canonical trees — at
/// one recorder, and through a shared Monitor at 1/2/8 threads (the
/// merged extract() against the merge of the per-stream references).
/// Also exercises the edge semantics the reference makes explicit:
/// unmatched returns, moncontrol-suppressed frames, node-cap overflow
/// attribution, and the reset()-mid-run spine rebuild.  Last, runs TL
/// programs on the VM under RecordContexts and checks the exact times
/// core/ContextTree derives from the recorded tree.
///
/// Thread-safety claims are only fully proven instrumented; the
/// gprof_cct_smoke ctest target runs this suite and is meant to be
/// included in the TSan smoke set (see tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "core/ContextTree.h"
#include "core/SymbolTable.h"
#include "gmon/GmonFile.h"
#include "runtime/CctRecorder.h"
#include "runtime/Monitor.h"
#include "support/Random.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

using namespace gprof;

namespace {

/// The reference recorder: same event semantics as CctRecorder, written
/// for clarity, not speed — a std::map keyed (parent, site, callee) and
/// no capacity limit.  Emits raw creation-order nodes; the canonical
/// form is obtained by folding through ProfileData::addContextTree, so
/// the comparison also goes through the exact normalizer production
/// merges use.
class RefCct {
public:
  RefCct() { Nodes.push_back({0, 0, CctRootParent, 0, 0}); }

  void enter(Address FromPc, Address SelfPc, bool Record) {
    if (!Record) {
      Stack.push_back({FromPc, SelfPc, cur(), false});
      return;
    }
    auto Key = std::make_tuple(cur(), FromPc, SelfPc);
    auto [It, New] = Index.try_emplace(Key, uint32_t(Nodes.size()));
    if (New)
      Nodes.push_back({FromPc, SelfPc, cur(), 0, 0});
    ++Nodes[It->second].Calls;
    Stack.push_back({FromPc, SelfPc, It->second, true});
  }

  void leave(Address SelfPc) {
    if (!Stack.empty() && Stack.back().SelfPc == SelfPc)
      Stack.pop_back();
  }

  void tick() {
    if (cur() != 0)
      ++Nodes[cur()].Ticks;
  }

  /// Raw CctNode vector (virtual root elided, creation order, so every
  /// parent precedes its children).
  std::vector<CctNode> emitRaw() const {
    std::vector<CctNode> Out;
    for (size_t I = 1; I != Nodes.size(); ++I) {
      const Node &N = Nodes[I];
      CctNode C;
      C.Parent = N.Parent == 0 ? CctRootParent : N.Parent - 1;
      C.FromPc = N.FromPc;
      C.SelfPc = N.SelfPc;
      C.Calls = N.Calls;
      C.Ticks = N.Ticks;
      Out.push_back(C);
    }
    return Out;
  }

private:
  struct Node {
    Address FromPc;
    Address SelfPc;
    uint32_t Parent;
    uint64_t Calls;
    uint64_t Ticks;
  };
  struct Frame {
    Address FromPc;
    Address SelfPc;
    uint32_t Node;
    bool Counted;
  };

  uint32_t cur() const { return Stack.empty() ? 0 : Stack.back().Node; }

  std::vector<Node> Nodes;
  std::vector<Frame> Stack;
  std::map<std::tuple<uint32_t, Address, Address>, uint32_t> Index;
};

/// Canonicalizes a raw node vector through the production normalizer.
std::vector<CctNode> canonical(const std::vector<CctNode> &Raw) {
  ProfileData D;
  D.addContextTree(Raw);
  return D.Contexts;
}

struct Ev {
  enum Kind { Call, Ret, Tick } K;
  Address FromPc = 0, SelfPc = 0;
};

/// A randomized mostly-balanced event stream over a small routine
/// alphabet.  Small alphabets force path sharing (deep sibling chains and
/// move-to-front churn); occasional bogus returns exercise the unmatched
/// path.
std::vector<Ev> makeStream(uint64_t Seed, size_t Len) {
  SplitMix64 Rng(Seed);
  std::vector<Ev> Out;
  std::vector<Address> Depth; // SelfPc of each open frame.
  for (size_t I = 0; I != Len; ++I) {
    uint64_t R = Rng.nextBelow(100);
    if (R < 40 && Depth.size() < 24) {
      Address Self = 0x1000 + Rng.nextBelow(7) * 0x100;
      Address From = 0x2000 + Rng.nextBelow(5) * 0x40;
      Out.push_back({Ev::Call, From, Self});
      Depth.push_back(Self);
    } else if (R < 70 && !Depth.empty()) {
      Out.push_back({Ev::Ret, 0, Depth.back()});
      Depth.pop_back();
    } else if (R < 75) {
      // A return that matches no open frame: both recorders must shrug.
      Out.push_back({Ev::Ret, 0, 0xdead});
    } else {
      Out.push_back({Ev::Tick, 0, 0});
    }
  }
  while (!Depth.empty()) {
    Out.push_back({Ev::Ret, 0, Depth.back()});
    Depth.pop_back();
  }
  return Out;
}

void expectTreesEqual(const std::vector<CctNode> &A,
                      const std::vector<CctNode> &B,
                      const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Parent, B[I].Parent) << What << " node " << I;
    EXPECT_EQ(A[I].FromPc, B[I].FromPc) << What << " node " << I;
    EXPECT_EQ(A[I].SelfPc, B[I].SelfPc) << What << " node " << I;
    EXPECT_EQ(A[I].Calls, B[I].Calls) << What << " node " << I;
    EXPECT_EQ(A[I].Ticks, B[I].Ticks) << What << " node " << I;
  }
}

} // namespace

class CctDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CctDifferentialTest, RecorderMatchesReferenceNodeForNode) {
  std::vector<Ev> Stream = makeStream(GetParam() * 7919 + 1, 20000);
  CctRecorder Rec;
  RefCct Ref;
  for (const Ev &E : Stream) {
    switch (E.K) {
    case Ev::Call:
      Rec.enter(E.FromPc, E.SelfPc, true);
      Ref.enter(E.FromPc, E.SelfPc, true);
      break;
    case Ev::Ret:
      Rec.leave(E.SelfPc);
      Ref.leave(E.SelfPc);
      break;
    case Ev::Tick:
      Rec.tick();
      Ref.tick();
      break;
    }
  }
  std::vector<CctNode> Got = Rec.snapshot();
  expectTreesEqual(Got, canonical(Ref.emitRaw()), "vs reference");
  // snapshot() is already in canonical form: normalizing is the identity.
  expectTreesEqual(Got, canonical(Got), "canonical idempotence");
  EXPECT_FALSE(Rec.overflowed());
}

TEST_P(CctDifferentialTest, MonitorMergeMatchesReferenceAcrossThreads) {
  for (unsigned K : {1u, 2u, 8u}) {
    std::vector<std::vector<Ev>> Streams;
    for (unsigned T = 0; T != K; ++T)
      Streams.push_back(makeStream(GetParam() * 131 + T + 2, 8000));

    MonitorOptions MO;
    MO.RecordContexts = true;
    Monitor Mon(0x1000, 0x3000, MO);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != K; ++T)
      Workers.emplace_back([&, T] {
        for (const Ev &E : Streams[T]) {
          switch (E.K) {
          case Ev::Call:
            Mon.onCall(E.FromPc, E.SelfPc);
            break;
          case Ev::Ret:
            Mon.onReturn(E.SelfPc);
            break;
          case Ev::Tick:
            Mon.onTick(0x1000);
            break;
          }
        }
      });
    for (std::thread &W : Workers)
      W.join();

    ProfileData RefData;
    for (unsigned T = 0; T != K; ++T) {
      RefCct Ref;
      for (const Ev &E : Streams[T]) {
        switch (E.K) {
        case Ev::Call:
          Ref.enter(E.FromPc, E.SelfPc, true);
          break;
        case Ev::Ret:
          Ref.leave(E.SelfPc);
          break;
        case Ev::Tick:
          Ref.tick();
          break;
        }
      }
      RefData.addContextTree(Ref.emitRaw());
    }

    expectTreesEqual(Mon.extract().Contexts, RefData.Contexts,
                     "merged, k=" + std::to_string(K));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CctDifferentialTest,
                         testing::Range<uint64_t>(0, 6));

//===----------------------------------------------------------------------===//
// Edge semantics
//===----------------------------------------------------------------------===//

TEST(CctRecorderTest, SuppressedFramesKeepBalanceAndAttributeToAncestor) {
  CctRecorder Rec;
  Rec.enter(0x10, 0x100, true);  // a
  Rec.enter(0x20, 0x200, false); // b, moncontrol off: no node
  Rec.tick();                    // attributes to a, the nearest recorded
  Rec.enter(0x30, 0x300, false); // c, still off
  Rec.tick();                    // still a
  Rec.leave(0x300);
  Rec.leave(0x200);
  Rec.tick(); // back in a, recorded
  Rec.leave(0x100);

  std::vector<CctNode> T = Rec.snapshot();
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].SelfPc, 0x100u);
  EXPECT_EQ(T[0].Calls, 1u);
  EXPECT_EQ(T[0].Ticks, 3u);
  EXPECT_EQ(Rec.stats().Enters, 3u);
}

TEST(CctRecorderTest, UnmatchedReturnsAreCountedAndIgnored) {
  CctRecorder Rec;
  Rec.leave(0x999); // empty stack
  Rec.enter(0x10, 0x100, true);
  Rec.leave(0x555); // wrong callee: not our frame
  Rec.tick();
  Rec.leave(0x100);
  CctStats S = Rec.stats();
  EXPECT_EQ(S.UnmatchedReturns, 2u);
  EXPECT_EQ(S.Returns, 1u);
  std::vector<CctNode> T = Rec.snapshot();
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Ticks, 1u);
}

TEST(CctRecorderTest, NodeCapAttributesOverflowToNearestAncestor) {
  CctRecorder Rec(2); // room for two contexts
  Rec.enter(0x10, 0x100, true);
  Rec.enter(0x20, 0x200, true);
  Rec.enter(0x30, 0x300, true); // third path: dropped
  Rec.tick();                   // attributes to the 0x200 context
  Rec.leave(0x300);
  Rec.leave(0x200);
  Rec.leave(0x100);

  EXPECT_TRUE(Rec.overflowed());
  EXPECT_EQ(Rec.stats().Dropped, 1u);
  std::vector<CctNode> T = Rec.snapshot();
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[1].SelfPc, 0x200u);
  EXPECT_EQ(T[1].Ticks, 1u);

  // Tick conservation: every tick() landed somewhere visible.
  CctStats S = Rec.stats();
  uint64_t InTree = 0;
  for (const CctNode &N : T)
    InTree += N.Ticks;
  EXPECT_EQ(InTree + S.RootTicks, S.Ticks);
}

TEST(CctRecorderTest, ResetMidRunRebuildsTheActiveSpine) {
  CctRecorder Rec;
  Rec.enter(0x10, 0x100, true);
  Rec.enter(0x20, 0x200, true);
  Rec.tick();
  Rec.tick();
  Rec.reset(); // slice boundary: counts go, the active path stays hot
  Rec.tick();  // must attribute to the rebuilt 0x100 > 0x200 context
  Rec.leave(0x200);
  Rec.leave(0x100);

  std::vector<CctNode> T = Rec.snapshot();
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].SelfPc, 0x100u);
  EXPECT_EQ(T[0].Calls, 0u); // the call predates the slice
  EXPECT_EQ(T[0].Ticks, 0u);
  EXPECT_EQ(T[1].SelfPc, 0x200u);
  EXPECT_EQ(T[1].Parent, 0u);
  EXPECT_EQ(T[1].Ticks, 1u);
}

TEST(CctRecorderTest, SnapshotPrunesSubtreesWithNoCounts) {
  CctRecorder Rec;
  Rec.enter(0x10, 0x100, true);
  Rec.enter(0x20, 0x200, true);
  Rec.leave(0x200);
  Rec.leave(0x100);
  Rec.reset(); // nothing active: the whole tree resets away
  EXPECT_TRUE(Rec.snapshot().empty());
}

//===----------------------------------------------------------------------===//
// Exact times from a VM run (core/ContextTree)
//===----------------------------------------------------------------------===//

namespace {

/// A TL program's run under RecordContexts and its analyzed tree.  Held
/// by pointer because the tree borrows the symbol table.
struct ContextRun {
  SymbolTable Syms;
  ProfileData Data;
  std::optional<ContextTree> Tree;

  uint64_t allTicks() const { return Data.Hist.totalSamples(); }
  uint64_t selfTicks(const char *Name) const {
    return Tree->exactSelfTicks(Syms.findByName(Name));
  }
  uint64_t totalTicks(const char *Name) const {
    return Tree->exactTotalTicks(Syms.findByName(Name));
  }
  /// Inclusive ticks of \p Callee's contexts entered from \p Caller.
  uint64_t arcTicks(const char *Caller, const char *Callee) const {
    uint32_t From = Syms.findByName(Caller), To = Syms.findByName(Callee);
    uint64_t Sum = 0;
    for (size_t I = 0; I != Tree->size(); ++I) {
      const ContextEntry &E = Tree->node(I);
      if (E.Routine == To && E.Maximal && E.Parent != CctRootParent &&
          Tree->node(E.Parent).Routine == From)
        Sum += E.InclusiveTicks;
    }
    return Sum;
  }
};

std::unique_ptr<ContextRun> runWithContexts(std::string_view Source) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(Source, CG);
  MonitorOptions MO;
  MO.RecordContexts = true;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 50;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());

  auto R = std::make_unique<ContextRun>();
  R->Syms = SymbolTable::fromImage(Img);
  R->Data = Mon.finish();
  R->Tree.emplace(cantFail(ContextTree::build(R->Data, R->Syms)));
  return R;
}

} // namespace

TEST(ContextTreeTest, SelfAndTotalTimes) {
  auto R = runWithContexts(R"(
    fn leaf(n) {
      var i = 0;
      var a = 0;
      while (i < n) { a = a + i * i; i = i + 1; }
      return a;
    }
    fn mid(n) { return leaf(n) + leaf(n); }
    fn main() { return mid(3000); }
  )");
  const double All = static_cast<double>(R->allTicks());
  ASSERT_GT(All, 0.0);
  // Nearly all time is inside leaf; main and mid inherit it.
  EXPECT_GT(R->selfTicks("leaf"), 0.9 * All);
  EXPECT_GT(R->totalTicks("mid"), 0.9 * All);
  EXPECT_GT(R->totalTicks("main"), 0.99 * All);
  EXPECT_LT(R->selfTicks("mid"), 0.1 * All);
  ASSERT_FALSE(R->Tree->routines().empty());
  for (uint32_t Routine : R->Tree->routines())
    EXPECT_LE(R->Tree->exactSelfTicks(Routine),
              R->Tree->exactTotalTicks(Routine));
}

TEST(ContextTreeTest, RecursionCountedOnce) {
  auto R = runWithContexts(R"(
    fn down(n) {
      if (n == 0) { return 0; }
      var i = 0;
      var a = 0;
      while (i < 50) { a = a + i; i = i + 1; }
      return a + down(n - 1);
    }
    fn main() { return down(200); }
  )");
  const uint64_t All = R->allTicks();
  ASSERT_GT(All, 0u);
  // Up to 200 nested contexts of down, yet each tick counts once.
  EXPECT_LE(R->totalTicks("down"), All);
  EXPECT_GT(R->totalTicks("down"), 0.9 * static_cast<double>(All));
}

TEST(ContextTreeTest, ArcTimesFollowTheCallingContext) {
  auto R = runWithContexts(R"(
    fn spin(n) {
      var i = 0;
      var a = 0;
      while (i < n) { a = a + i; i = i + 1; }
      return a;
    }
    fn light() { return spin(40); }
    fn heavy() { return spin(4000); }
    fn main() {
      var i = 0;
      var a = 0;
      while (i < 10) { a = a + light(); i = i + 1; }
      return a + heavy();
    }
  )");
  // heavy's single call dwarfs light's ten, though light calls more.
  ASSERT_GT(R->arcTicks("light", "spin"), 0u);
  EXPECT_GT(R->arcTicks("heavy", "spin"), 5 * R->arcTicks("light", "spin"));
  EXPECT_EQ(R->arcTicks("main", "spin"), 0u);
}

TEST(ContextTreeTest, SelfTicksAccountForEverySample) {
  auto R = runWithContexts(R"(
    fn work(n) {
      var i = 0;
      while (i < n) { i = i + 1; }
      return i;
    }
    fn main() { return work(3000) + work(30); }
  )");
  ASSERT_GT(R->allTicks(), 0u);
  uint64_t Self = R->Tree->unattributedTicks();
  for (uint32_t Routine : R->Tree->routines())
    Self += R->Tree->exactSelfTicks(Routine);
  EXPECT_EQ(Self, R->allTicks());
}
