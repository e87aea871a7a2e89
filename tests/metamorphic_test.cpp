//===- tests/metamorphic_test.cpp - Scale-invariance properties -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic tests: known transformations of the input profile must
/// produce predictable transformations of the analysis.
///
///  - Scaling every arc count by a constant leaves all propagated times
///    unchanged (only the C^r_e / C_e *ratios* matter, paper §4).
///  - Scaling the histogram (summing a run with itself) scales every
///    time by the same constant and preserves all orderings.
///  - Renaming routines permutes labels but not numbers.
///  - Splitting a recorded call sequence across k profiled threads
///    (k ∈ {1,2,4,8}) leaves the merged snapshot digest unchanged — the
///    thread-aware runtime's determinism contract (docs/RUNTIME_MT.md).
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/ContextTree.h"
#include "gmon/GmonFile.h"
#include "graph/Generators.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "support/Random.h"
#include "support/Sha256.h"
#include "tests/support/SyntheticProfile.h"
#include "vm/CodeGen.h"
#include "vm/ParallelRun.h"

#include <gtest/gtest.h>

#include <thread>

using namespace gprof;

namespace {

/// Builds a random profile over graph \p G with arc counts scaled by
/// \p CountScale and every self time from a seeded distribution.
SyntheticProfileBuilder makeProfile(const CallGraph &G, uint64_t Seed,
                                    uint64_t CountScale) {
  SyntheticProfileBuilder B(100);
  SplitMix64 Rng(Seed);
  for (NodeId N = 0; N != G.numNodes(); ++N) {
    B.addFunction(G.nodeName(N));
    B.setSelfSeconds(static_cast<uint32_t>(N),
                     static_cast<double>(Rng.nextInRange(0, 50)) / 100.0);
  }
  for (ArcId A = 0; A != G.numArcs(); ++A) {
    const Arc &E = G.arc(A);
    B.addCall(E.From, E.To, E.Count * CountScale);
  }
  for (NodeId N = 0; N != G.numNodes(); ++N)
    if (G.inArcs(N).empty())
      B.addSpontaneous(N, CountScale);
  return B;
}

} // namespace

class MetamorphicTest : public testing::TestWithParam<uint64_t> {};

TEST_P(MetamorphicTest, ArcCountScalingLeavesTimesInvariant) {
  CallGraph G = makeRandomGraph(25, 55, 9, 0.05, GetParam());
  ProfileReport R1 = cantFail(makeProfile(G, GetParam() + 1, 1).analyze());
  ProfileReport R7 = cantFail(makeProfile(G, GetParam() + 1, 7).analyze());

  ASSERT_EQ(R1.Functions.size(), R7.Functions.size());
  for (size_t I = 0; I != R1.Functions.size(); ++I) {
    EXPECT_NEAR(R1.Functions[I].SelfTime, R7.Functions[I].SelfTime, 1e-9);
    EXPECT_NEAR(R1.Functions[I].ChildTime, R7.Functions[I].ChildTime,
                1e-6)
        << R1.Functions[I].Name;
    EXPECT_EQ(R1.Functions[I].Calls * 7, R7.Functions[I].Calls);
    EXPECT_EQ(R1.Functions[I].CycleNumber, R7.Functions[I].CycleNumber);
  }
  EXPECT_NEAR(R1.TotalTime, R7.TotalTime, 1e-9);
}

TEST_P(MetamorphicTest, SummingARunWithItselfDoublesEverything) {
  CallGraph G = makeRandomGraph(20, 45, 9, 0.05, GetParam() + 100);
  SyntheticProfileBuilder B = makeProfile(G, GetParam() + 2, 1);
  auto In = B.build();
  ProfileData Doubled = In.Data;
  cantFail(Doubled.merge(In.Data));

  Analyzer A1(std::move(In.Syms));
  ProfileReport Single = cantFail(A1.analyze(In.Data));
  auto In2 = B.build();
  Analyzer A2(std::move(In2.Syms));
  ProfileReport Double = cantFail(A2.analyze(Doubled));

  EXPECT_EQ(Double.RunCount, 2u);
  EXPECT_NEAR(Double.TotalTime, 2 * Single.TotalTime, 1e-9);
  for (size_t I = 0; I != Single.Functions.size(); ++I) {
    EXPECT_NEAR(Double.Functions[I].SelfTime,
                2 * Single.Functions[I].SelfTime, 1e-9);
    EXPECT_NEAR(Double.Functions[I].totalTime(),
                2 * Single.Functions[I].totalTime(), 1e-6);
    EXPECT_EQ(Double.Functions[I].Calls, 2 * Single.Functions[I].Calls);
  }
  // Orderings are preserved exactly.
  EXPECT_EQ(Single.FlatOrder, Double.FlatOrder);
  ASSERT_EQ(Single.GraphOrder.size(), Double.GraphOrder.size());
  for (size_t I = 0; I != Single.GraphOrder.size(); ++I) {
    EXPECT_EQ(Single.GraphOrder[I].IsCycle, Double.GraphOrder[I].IsCycle);
    EXPECT_EQ(Single.GraphOrder[I].Index, Double.GraphOrder[I].Index);
  }
}

TEST_P(MetamorphicTest, DeletingAllArcsOfACallerIsolatesIt) {
  // Removing every outgoing arc of one routine must hand its inherited
  // time back to nobody — its ChildTime drops to 0 and the callees'
  // remaining parents absorb proportionally more.
  CallGraph G = makeRandomDag(15, 30, 9, GetParam() + 200);
  // Pick a node with outgoing arcs.
  NodeId Victim = InvalidNode;
  for (NodeId N = 0; N != G.numNodes(); ++N)
    if (!G.outArcs(N).empty()) {
      Victim = N;
      break;
    }
  ASSERT_NE(Victim, InvalidNode);

  AnalyzerOptions Opts;
  for (ArcId A : G.outArcs(Victim))
    Opts.DeleteArcs.emplace_back(G.nodeName(Victim),
                                 G.nodeName(G.arc(A).To));
  ProfileReport R =
      cantFail(makeProfile(G, GetParam() + 3, 1).analyze(Opts));
  uint32_t V = R.findFunction(G.nodeName(Victim));
  EXPECT_NEAR(R.Functions[V].ChildTime, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest,
                         testing::Range<uint64_t>(0, 10));

//===----------------------------------------------------------------------===//
// Thread-split invariance of the runtime snapshot
//===----------------------------------------------------------------------===//

namespace {

/// SHA-256 of the serialized snapshot — the canonical identity of a
/// profile's logical content.
std::string snapshotDigest(const Monitor &Mon) {
  return digestToHex(Sha256::hash(writeGmon(Mon.extract())));
}

} // namespace

class ThreadSplitMetamorphicTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ThreadSplitMetamorphicTest, SplittingAcrossThreadsPreservesDigest) {
  constexpr Address Lo = 0x1000, Hi = 0x3000;
  // A mixed stream of arc traversals and PC ticks.
  SplitMix64 Rng(GetParam() * 977 + 5);
  struct Ev {
    bool IsCall;
    Address A, B;
  };
  std::vector<Ev> Stream;
  for (int I = 0; I != 24000; ++I) {
    Address A = Lo + Rng.nextBelow(Hi - Lo);
    if (Rng.nextBool(0.3))
      Stream.push_back({false, A, 0});
    else
      Stream.push_back({true, A, Lo + Rng.nextBelow(128) * 64});
  }

  for (ArcTableKind Kind : {ArcTableKind::Bsd, ArcTableKind::OpenAddressing,
                            ArcTableKind::StdMap}) {
    MonitorOptions MO;
    MO.TableKind = Kind;
    std::string Reference;
    for (unsigned K : {1u, 2u, 4u, 8u}) {
      Monitor Mon(Lo, Hi, MO);
      // Round-robin split preserving per-thread order; each part replays
      // on its own thread.
      std::vector<std::thread> Workers;
      for (unsigned T = 0; T != K; ++T)
        Workers.emplace_back([&, T] {
          for (size_t I = T; I < Stream.size(); I += K) {
            if (Stream[I].IsCall)
              Mon.onCall(Stream[I].A, Stream[I].B);
            else
              Mon.onTick(Stream[I].A);
          }
        });
      for (std::thread &W : Workers)
        W.join();
      std::string Digest = snapshotDigest(Mon);
      if (K == 1)
        Reference = Digest;
      else
        EXPECT_EQ(Digest, Reference)
            << "table kind " << static_cast<int>(Kind) << ", k=" << K;
    }
    ASSERT_FALSE(Reference.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadSplitMetamorphicTest,
                         testing::Range<uint64_t>(0, 4));

//===----------------------------------------------------------------------===//
// Context-tree invariants
//===----------------------------------------------------------------------===//

namespace {

/// Runs one corpus program on \p ThreadCount interpreter threads under a
/// context-recording monitor and returns the condensed profile.
ProfileData runCorpusWithContexts(const std::string &Name,
                                  unsigned ThreadCount, bool Contexts) {
  std::string Source =
      cantFail(readFileText(std::string(TL_CORPUS_DIR) + "/" + Name));
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(Source, CG);
  MonitorOptions MO;
  MO.RecordContexts = Contexts;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 997;
  cantFail(runOnThreads(Img, VO, &Mon, ThreadCount));
  return Mon.finish();
}

/// One balanced top-level unit of call/return/tick events: the smallest
/// chunk that can move between threads without tearing a context open.
struct CctEv {
  enum Kind { Call, Ret, Tick } K;
  Address FromPc = 0, SelfPc = 0;
};

void appendUnit(SplitMix64 &Rng, unsigned Depth, std::vector<CctEv> &Out) {
  Address Self = 0x1000 + Rng.nextBelow(9) * 0x80;
  Address From = 0x2000 + Rng.nextBelow(6) * 0x20;
  Out.push_back({CctEv::Call, From, Self});
  unsigned Inner = static_cast<unsigned>(Rng.nextBelow(4));
  for (unsigned I = 0; I != Inner; ++I) {
    if (Depth < 6 && Rng.nextBool(0.5))
      appendUnit(Rng, Depth + 1, Out);
    else
      Out.push_back({CctEv::Tick, 0, 0});
  }
  Out.push_back({CctEv::Ret, 0, Self});
}

void replayInto(Monitor &Mon, const std::vector<CctEv> &Events) {
  for (const CctEv &E : Events) {
    switch (E.K) {
    case CctEv::Call:
      Mon.onCall(E.FromPc, E.SelfPc);
      break;
    case CctEv::Ret:
      Mon.onReturn(E.SelfPc);
      break;
    case CctEv::Tick:
      Mon.onTick(E.SelfPc ? E.SelfPc : 0x1000);
      break;
    }
  }
}

} // namespace

class CctMetamorphicTest : public testing::TestWithParam<unsigned> {};

TEST_P(CctMetamorphicTest, CollapseReproducesArcTableByteIdentically) {
  // The standing invariant: the context tree carries strictly more
  // information than the arc table, so (a) switching CCT recording on
  // must not perturb the arcs or the histogram by a single byte, and
  // (b) collapsing the tree per (site, callee) must reproduce the arc
  // table exactly — same records, same canonical order.
  const unsigned K = GetParam();
  for (const char *Name : {"primes.tl", "dispatch.tl", "contexts.tl"}) {
    ProfileData Off = runCorpusWithContexts(Name, K, false);
    ProfileData On = runCorpusWithContexts(Name, K, true);
    ASSERT_FALSE(On.Contexts.empty()) << Name;

    ProfileData Projected = On;
    Projected.Contexts.clear();
    Projected.ContextTreeOverflowed = false;
    EXPECT_EQ(writeGmon(Projected), writeGmon(Off))
        << Name << " k=" << K << ": recording contexts changed the "
        << "arc/histogram halves";

    ProfileData Collapsed = Projected;
    Collapsed.Arcs = collapseContextsToArcs(On.Contexts);
    EXPECT_EQ(writeGmon(Collapsed), writeGmon(Projected))
        << Name << " k=" << K << ": CCT collapse disagrees with the arc "
        << "table";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CctMetamorphicTest,
                         testing::Values(1u, 2u, 8u));

TEST(CctThreadSplitTest, SplittingUnitsAcrossThreadsPreservesDigest) {
  // Like SplittingAcrossThreadsPreservesDigest, but the moved quantum is
  // a whole balanced top-level unit: a context is meaningless torn
  // across threads (each thread has its own shadow stack), while whole
  // units commute freely — the merged canonical tree, and hence the
  // serialized profile, must not depend on the split.
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SplitMix64 Rng(Seed * 7717 + 11);
    std::vector<std::vector<CctEv>> Units;
    for (int U = 0; U != 600; ++U) {
      Units.emplace_back();
      appendUnit(Rng, 0, Units.back());
    }

    MonitorOptions MO;
    MO.RecordContexts = true;
    std::string Reference;
    for (unsigned K : {1u, 2u, 4u, 8u}) {
      Monitor Mon(0x1000, 0x3000, MO);
      std::vector<std::thread> Workers;
      for (unsigned T = 0; T != K; ++T)
        Workers.emplace_back([&, T] {
          for (size_t U = T; U < Units.size(); U += K)
            replayInto(Mon, Units[U]);
        });
      for (std::thread &W : Workers)
        W.join();
      std::string Digest = digestToHex(Sha256::hash(writeGmon(Mon.extract())));
      if (K == 1)
        Reference = Digest;
      else
        EXPECT_EQ(Digest, Reference) << "seed " << Seed << ", k=" << K;
    }
  }
}

TEST(CctShardMergeTest, MergeGroupingAndOrderLeaveDigestInvariant) {
  // Shard-merge invariance: however a set of context-carrying shards is
  // grouped and ordered into a sum (sequential, pairwise, reversed), the
  // canonical tree — and the serialized profile — is the same.
  std::vector<ProfileData> Shards;
  for (uint64_t S = 0; S != 4; ++S) {
    SplitMix64 Rng(S * 131 + 7);
    Monitor Mon(0x1000, 0x3000, [] {
      MonitorOptions MO;
      MO.RecordContexts = true;
      return MO;
    }());
    for (int U = 0; U != 200; ++U) {
      std::vector<CctEv> Unit;
      appendUnit(Rng, 0, Unit);
      replayInto(Mon, Unit);
    }
    Shards.push_back(Mon.finish());
  }

  auto MergeAll = [&](std::vector<size_t> Order) {
    ProfileData Sum = Shards[Order[0]];
    for (size_t I = 1; I != Order.size(); ++I)
      cantFail(Sum.merge(Shards[Order[I]]));
    return writeGmon(Sum);
  };
  std::vector<uint8_t> Sequential = MergeAll({0, 1, 2, 3});
  EXPECT_EQ(MergeAll({3, 2, 1, 0}), Sequential);
  EXPECT_EQ(MergeAll({2, 0, 3, 1}), Sequential);

  ProfileData Left = Shards[0], Right = Shards[2];
  cantFail(Left.merge(Shards[1]));
  cantFail(Right.merge(Shards[3]));
  cantFail(Left.merge(Right));
  EXPECT_EQ(writeGmon(Left), Sequential);
}
