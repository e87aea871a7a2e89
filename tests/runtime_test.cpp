//===- tests/runtime_test.cpp - Unit tests for the monitoring runtime -----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "runtime/ArcTable.h"
#include "runtime/Monitor.h"
#include "support/Random.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <map>

using namespace gprof;

namespace {

/// Reference model for arc recording.
using RefMap = std::map<std::pair<Address, Address>, uint64_t>;

RefMap toMap(const std::vector<ArcRecord> &Arcs) {
  RefMap M;
  for (const ArcRecord &R : Arcs)
    M[{R.FromPc, R.SelfPc}] += R.Count;
  return M;
}

/// Total traversals recorded into the callee at \p SelfPc.
uint64_t callsInto(const ProfileData &D, Address SelfPc) {
  uint64_t Total = 0;
  for (const ArcRecord &R : D.Arcs)
    if (R.SelfPc == SelfPc)
      Total = saturatingAdd(Total, R.Count);
  return Total;
}

} // namespace

//===----------------------------------------------------------------------===//
// Arc tables
//===----------------------------------------------------------------------===//

TEST(BsdArcTableTest, RecordsAndMerges) {
  BsdArcTable T(100, 200);
  T.record(110, 150);
  T.record(110, 150);
  T.record(111, 150);
  auto M = toMap(T.snapshot());
  EXPECT_EQ((M[{110, 150}]), 2u);
  EXPECT_EQ((M[{111, 150}]), 1u);
}

TEST(BsdArcTableTest, MultiCalleeCallSiteChains) {
  // The paper's "functional variable" case: one call site, two callees.
  BsdArcTable T(100, 200);
  T.record(120, 150);
  T.record(120, 160);
  T.record(120, 150);
  auto M = toMap(T.snapshot());
  EXPECT_EQ((M[{120, 150}]), 2u);
  EXPECT_EQ((M[{120, 160}]), 1u);
}

TEST(BsdArcTableTest, MoveToFrontKeepsCountsExact) {
  // The move-to-front relink must never lose or double-count an entry,
  // whatever the hit pattern: alternate two callees (the worst case — the
  // chain reorders on every other record), then hammer a third.
  BsdArcTable T(100, 200);
  for (int I = 0; I != 10; ++I) {
    T.record(130, 150);
    T.record(130, 160);
  }
  for (int I = 0; I != 5; ++I)
    T.record(130, 170);
  T.record(130, 150);
  auto M = toMap(T.snapshot());
  EXPECT_EQ((M[{130, 150}]), 11u);
  EXPECT_EQ((M[{130, 160}]), 10u);
  EXPECT_EQ((M[{130, 170}]), 5u);
  EXPECT_EQ(T.snapshot().size(), 3u);
}

TEST(BsdArcTableTest, OutsideCallSitesKeptExactly) {
  BsdArcTable T(100, 200);
  T.record(0, 150);    // Spontaneous (below range).
  T.record(5000, 160); // Above range.
  auto M = toMap(T.snapshot());
  EXPECT_EQ((M[{0, 150}]), 1u);
  EXPECT_EQ((M[{5000, 160}]), 1u);
}

TEST(BsdArcTableTest, DensityMergesNeighbouringSites) {
  // With FromsDensity 4, call sites 112 and 113 share a froms slot and are
  // condensed to the slot base address 112 — the historical trade-off.
  BsdArcTable T(100, 200, /*FromsDensity=*/4);
  T.record(112, 150);
  T.record(113, 150);
  auto M = toMap(T.snapshot());
  EXPECT_EQ((M[{112, 150}]), 2u);
}

TEST(BsdArcTableTest, OverflowStopsRecording) {
  BsdArcTable T(0, 1000, 1, /*TosLimit=*/4);
  for (Address A = 0; A != 100; ++A)
    T.record(A, 500 + A);
  EXPECT_TRUE(T.overflowed());
  // Some arcs were recorded before the limit hit.
  EXPECT_GE(T.snapshot().size(), 3u);
  EXPECT_LT(T.snapshot().size(), 100u);
}

TEST(BsdArcTableTest, ResetClears) {
  BsdArcTable T(0, 100);
  T.record(10, 50);
  T.record(500, 50);
  T.reset();
  EXPECT_TRUE(T.snapshot().empty());
  EXPECT_FALSE(T.overflowed());
}

TEST(OpenAddressingTest, GrowsAndKeepsCounts) {
  OpenAddressingArcTable T(16);
  SplitMix64 Rng(3);
  RefMap Ref;
  for (int I = 0; I != 5000; ++I) {
    Address From = Rng.nextBelow(300);
    Address Self = 1000 + Rng.nextBelow(50);
    T.record(From, Self);
    ++Ref[{From, Self}];
  }
  EXPECT_EQ(toMap(T.snapshot()), Ref);
}

TEST(OpenAddressingTest, GrowthStaysGeometric) {
  // grow() must double from the *current* size: after ingesting N
  // distinct arcs the table is a power of two within the 3/4 load bound,
  // never rebuilt at its initial capacity.  A regression to fixed-size
  // rebuilds makes large re-ingests quadratic and blows this bound.
  constexpr size_t N = 100000;
  OpenAddressingArcTable T(16);
  for (size_t I = 0; I != N; ++I)
    T.record(static_cast<Address>(I), static_cast<Address>(I * 7 + 1));
  auto Snap = T.snapshot();
  EXPECT_EQ(Snap.size(), N);
  // Slots are (from, self, count) triples; capacity stays within 8/3 of
  // the live entries (doubling at 75% load keeps load >= 37.5%).
  size_t SlotBytes = 3 * sizeof(uint64_t);
  EXPECT_LE(T.memoryBytes(), (N * 8 + 2) / 3 * SlotBytes);
}

TEST(StdMapArcTableTest, MatchesReference) {
  StdMapArcTable T;
  T.record(1, 2);
  T.record(1, 2);
  T.record(3, 4);
  auto M = toMap(T.snapshot());
  EXPECT_EQ((M[{1, 2}]), 2u);
  EXPECT_EQ((M[{3, 4}]), 1u);
}

/// Property: all three tables agree on random call streams.
class ArcTableAgreementTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ArcTableAgreementTest, AllImplementationsAgree) {
  BsdArcTable Bsd(0, 10000);
  OpenAddressingArcTable Open;
  StdMapArcTable Map;
  SplitMix64 Rng(GetParam());
  for (int I = 0; I != 20000; ++I) {
    // Mostly in-range call sites; a few outside.
    Address From = Rng.nextBool(0.05) ? 20000 + Rng.nextBelow(100)
                                      : Rng.nextBelow(10000);
    Address Self = Rng.nextBelow(64) * 128;
    Bsd.record(From, Self);
    Open.record(From, Self);
    Map.record(From, Self);
  }
  RefMap Ref = toMap(Map.snapshot());
  EXPECT_EQ(toMap(Bsd.snapshot()), Ref);
  EXPECT_EQ(toMap(Open.snapshot()), Ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcTableAgreementTest,
                         testing::Range<uint64_t>(0, 8));

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

namespace {

const char *MonitoredProgram = R"(
  fn leaf(x) { return x * x; }
  fn driver(n) {
    var total = 0;
    var i = 0;
    while (i < n) {
      total = total + leaf(i);
      i = i + 1;
    }
    return total;
  }
  fn main() { return driver(50); }
)";

Image profiledImage(const char *Src = MonitoredProgram) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  return compileTLOrDie(Src, CG);
}

} // namespace

TEST(MonitorTest, CollectsArcsAndSamples) {
  Image Img = profiledImage();
  Monitor Mon(Img.lowPc(), Img.highPc());
  VMOptions VO;
  VO.CyclesPerTick = 100;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  RunResult R = cantFail(Machine.run());

  ProfileData Data = Mon.finish();
  EXPECT_EQ(Data.Hist.totalSamples(), R.Ticks);
  EXPECT_FALSE(Data.ArcTableOverflowed);

  // Arc counts: driver->leaf 50 times, main->driver once, and main's
  // spontaneous activation.
  Address LeafAddr = 0, DriverAddr = 0, MainAddr = 0;
  for (const FuncInfo &F : Img.Functions) {
    if (F.Name == "leaf")
      LeafAddr = F.Addr;
    if (F.Name == "driver")
      DriverAddr = F.Addr;
    if (F.Name == "main")
      MainAddr = F.Addr;
  }
  EXPECT_EQ(callsInto(Data, LeafAddr), 50u);
  EXPECT_EQ(callsInto(Data, DriverAddr), 1u);
  EXPECT_EQ(callsInto(Data, MainAddr), 1u);
}

TEST(MonitorTest, ControlPausesCollection) {
  Image Img = profiledImage();
  Monitor Mon(Img.lowPc(), Img.highPc());
  VMOptions VO;
  VO.CyclesPerTick = 100;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);

  Mon.control(false);
  cantFail(Machine.run());
  ProfileData Paused = Mon.extract();
  EXPECT_TRUE(Paused.Arcs.empty());
  EXPECT_EQ(Paused.Hist.totalSamples(), 0u);

  Mon.control(true);
  cantFail(Machine.run());
  ProfileData Running = Mon.extract();
  EXPECT_FALSE(Running.Arcs.empty());
  EXPECT_GT(Running.Hist.totalSamples(), 0u);
}

TEST(MonitorTest, ResetClearsData) {
  Image Img = profiledImage();
  Monitor Mon(Img.lowPc(), Img.highPc());
  VM Machine(Img);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  EXPECT_FALSE(Mon.extract().Arcs.empty());
  Mon.reset();
  EXPECT_TRUE(Mon.extract().Arcs.empty());
  EXPECT_EQ(Mon.extract().Hist.totalSamples(), 0u);
}

TEST(MonitorTest, ExtractDoesNotDisturbCollection) {
  Image Img = profiledImage();
  Monitor Mon(Img.lowPc(), Img.highPc());
  VM Machine(Img);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  ProfileData First = Mon.extract();
  cantFail(Machine.run());
  ProfileData Second = Mon.extract();
  // Second run doubled the arc counts.
  ASSERT_FALSE(First.Arcs.empty());
  uint64_t FirstTotal = 0, SecondTotal = 0;
  for (const ArcRecord &R : First.Arcs)
    FirstTotal += R.Count;
  for (const ArcRecord &R : Second.Arcs)
    SecondTotal += R.Count;
  EXPECT_EQ(SecondTotal, 2 * FirstTotal);
}

TEST(MonitorTest, SelectiveDisabling) {
  Image Img = profiledImage();
  {
    MonitorOptions MO;
    MO.RecordArcs = false;
    Monitor Mon(Img.lowPc(), Img.highPc(), MO);
    VMOptions VO;
    VO.CyclesPerTick = 100;
    VM Machine(Img, VO);
    Machine.setHooks(&Mon);
    cantFail(Machine.run());
    ProfileData D = Mon.finish();
    EXPECT_TRUE(D.Arcs.empty());
    EXPECT_GT(D.Hist.totalSamples(), 0u);
  }
  {
    MonitorOptions MO;
    MO.SampleHistogram = false;
    Monitor Mon(Img.lowPc(), Img.highPc(), MO);
    VM Machine(Img);
    Machine.setHooks(&Mon);
    cantFail(Machine.run());
    ProfileData D = Mon.finish();
    EXPECT_FALSE(D.Arcs.empty());
    EXPECT_EQ(D.Hist.totalSamples(), 0u);
  }
}

TEST(MonitorTest, TableKindsProduceSameArcs) {
  Image Img = profiledImage();
  RefMap Results[3];
  ArcTableKind Kinds[3] = {ArcTableKind::Bsd, ArcTableKind::OpenAddressing,
                           ArcTableKind::StdMap};
  for (int I = 0; I != 3; ++I) {
    MonitorOptions MO;
    MO.TableKind = Kinds[I];
    Monitor Mon(Img.lowPc(), Img.highPc(), MO);
    VM Machine(Img);
    Machine.setHooks(&Mon);
    cantFail(Machine.run());
    Results[I] = toMap(Mon.finish().Arcs);
  }
  EXPECT_EQ(Results[0], Results[2]);
  EXPECT_EQ(Results[1], Results[2]);
}

TEST(MonitorTest, OverflowFlagPropagates) {
  Image Img = profiledImage();
  MonitorOptions MO;
  MO.TosLimit = 1;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VM Machine(Img);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  EXPECT_TRUE(Mon.arcTableOverflowed());
  EXPECT_TRUE(Mon.finish().ArcTableOverflowed);
}

TEST(MonitorTest, HistogramBucketGranularity) {
  Image Img = profiledImage();
  MonitorOptions MO;
  MO.HistBucketSize = 8;
  Monitor Mon(Img.lowPc(), Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 50;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  ProfileData D = Mon.finish();
  EXPECT_EQ(D.Hist.bucketSize(), 8u);
  EXPECT_GT(D.Hist.totalSamples(), 0u);
}

TEST(MonitorTest, SamplesLandInsideExecutedFunctions) {
  Image Img = profiledImage();
  Monitor Mon(Img.lowPc(), Img.highPc());
  VMOptions VO;
  VO.CyclesPerTick = 25;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  ProfileData D = Mon.finish();
  ASSERT_GT(D.Hist.totalSamples(), 0u);
  EXPECT_EQ(D.Hist.outOfRangeSamples(), 0u);
  // Every sampled bucket lies inside some function's range.
  for (size_t B = 0; B != D.Hist.numBuckets(); ++B) {
    if (D.Hist.bucketCount(B) == 0)
      continue;
    EXPECT_NE(Img.findFunctionContaining(D.Hist.bucketStart(B)), nullptr);
  }
}
