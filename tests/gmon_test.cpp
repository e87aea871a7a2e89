//===- tests/gmon_test.cpp - Unit tests for the profile data model --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "gmon/Histogram.h"
#include "gmon/ProfileData.h"
#include "support/Format.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace gprof;

namespace {

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
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketGeometry) {
  Histogram H(100, 200, 10);
  EXPECT_EQ(H.numBuckets(), 10u);
  EXPECT_EQ(H.bucketStart(0), 100u);
  EXPECT_EQ(H.bucketEnd(0), 110u);
  EXPECT_EQ(H.bucketStart(9), 190u);
  EXPECT_EQ(H.bucketEnd(9), 200u);
}

TEST(HistogramTest, PartialFinalBucket) {
  Histogram H(0, 25, 10);
  EXPECT_EQ(H.numBuckets(), 3u);
  EXPECT_EQ(H.bucketEnd(2), 25u); // Clamped.
}

TEST(HistogramTest, RecordInRange) {
  Histogram H(100, 200, 10);
  H.recordPc(100);
  H.recordPc(109);
  H.recordPc(110);
  H.recordPc(199);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(9), 1u);
  EXPECT_EQ(H.totalSamples(), 4u);
  EXPECT_EQ(H.outOfRangeSamples(), 0u);
}

TEST(HistogramTest, OutOfRangeCountedSeparately) {
  Histogram H(100, 200, 10);
  H.recordPc(99);
  H.recordPc(200);
  H.recordPc(5000);
  EXPECT_EQ(H.totalSamples(), 0u);
  EXPECT_EQ(H.outOfRangeSamples(), 3u);
}

TEST(HistogramTest, OneToOneGranularity) {
  // The retrospective's epiphany: bucket size 1 gives a full count per PC.
  Histogram H(0, 100, 1);
  EXPECT_EQ(H.numBuckets(), 100u);
  for (int I = 0; I != 5; ++I)
    H.recordPc(42);
  EXPECT_EQ(H.bucketCount(42), 5u);
}

TEST(HistogramTest, MergeAddsBuckets) {
  Histogram A(0, 100, 10), B(0, 100, 10);
  A.recordPc(5);
  B.recordPc(5);
  B.recordPc(95);
  cantFail(A.merge(B));
  EXPECT_EQ(A.bucketCount(0), 2u);
  EXPECT_EQ(A.bucketCount(9), 1u);
}

TEST(HistogramTest, MergeRejectsMismatchedRanges) {
  Histogram A(0, 100, 10), B(0, 200, 10);
  Error E = A.merge(B);
  EXPECT_TRUE(static_cast<bool>(E));
  Histogram C(0, 100, 20);
  Error E2 = A.merge(C);
  EXPECT_TRUE(static_cast<bool>(E2));
}

TEST(HistogramTest, EmptyMergesWithEmpty) {
  Histogram A, B;
  cantFail(A.merge(B));
  EXPECT_TRUE(A.empty());
}

TEST(HistogramTest, EmptySideAdoptsOtherGeometry) {
  // Regression: an empty histogram (a run with no samples) used to be
  // rejected as incompatible with a sampled sibling.
  Histogram Sampled(0, 100, 10);
  Sampled.recordPc(5);
  Sampled.recordPc(95);
  Sampled.recordPc(1000); // Out of range.

  Histogram Empty;
  cantFail(Empty.merge(Sampled));
  EXPECT_EQ(Empty.lowPc(), 0u);
  EXPECT_EQ(Empty.highPc(), 100u);
  EXPECT_EQ(Empty.bucketSize(), 10u);
  EXPECT_EQ(Empty.counts(), Sampled.counts());
  EXPECT_EQ(Empty.outOfRangeSamples(), 1u);

  // The other direction: merging an empty side changes nothing.
  Histogram Unsampled;
  Unsampled.recordPc(7); // Empty histogram: counted as out-of-range.
  cantFail(Sampled.merge(Unsampled));
  EXPECT_EQ(Sampled.totalSamples(), 2u);
  EXPECT_EQ(Sampled.outOfRangeSamples(), 2u);
}

TEST(HistogramTest, SaturatingAddClampsAtMax) {
  EXPECT_EQ(saturatingAdd(2, 3), 5u);
  EXPECT_EQ(saturatingAdd(UINT64_MAX - 1, 1), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(0, 0), 0u);
}

TEST(HistogramTest, MergeSaturatesInsteadOfWrapping) {
  Histogram A(0, 10, 10), B(0, 10, 10);
  A.setBucketCount(0, UINT64_MAX - 1);
  B.setBucketCount(0, 5);
  cantFail(A.merge(B));
  // Regression: this used to wrap to 3 and silently restart the count.
  EXPECT_EQ(A.bucketCount(0), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// ProfileData
//===----------------------------------------------------------------------===//

TEST(ProfileDataTest, AddArcMerges) {
  ProfileData D;
  D.addArc(10, 20, 1);
  D.addArc(10, 20, 2);
  D.addArc(10, 30, 5);
  EXPECT_EQ(D.Arcs.size(), 3u); // addArc appends...
  D.canonicalizeArcs();         // ... and canonicalization coalesces.
  ASSERT_EQ(D.Arcs.size(), 2u);
  EXPECT_EQ(D.Arcs[0].Count, 3u);
  EXPECT_EQ(callsInto(D, 20), 3u);
  EXPECT_EQ(callsInto(D, 30), 5u);
  EXPECT_EQ(callsInto(D, 99), 0u);
}

TEST(ProfileDataTest, MergeSumsRunsAndArcs) {
  ProfileData A, B;
  A.Hist = Histogram(0, 100, 1);
  B.Hist = Histogram(0, 100, 1);
  A.Hist.recordPc(1);
  B.Hist.recordPc(1);
  A.addArc(5, 6, 7);
  B.addArc(5, 6, 3);
  B.addArc(8, 9, 1);
  B.ArcTableOverflowed = true;
  cantFail(A.merge(B));
  EXPECT_EQ(A.RunCount, 2u);
  EXPECT_EQ(A.Hist.bucketCount(1), 2u);
  EXPECT_EQ(callsInto(A, 6), 10u);
  EXPECT_EQ(callsInto(A, 9), 1u);
  EXPECT_TRUE(A.ArcTableOverflowed);
}

TEST(ProfileDataTest, MergeAdoptsHistogramFromSampledSide) {
  // Regression: a run that recorded arcs but exited before the first
  // sample tick has no histogram and must still sum with a sampled run.
  ProfileData Unsampled;
  Unsampled.addArc(5, 6, 7);
  ProfileData Sampled;
  Sampled.Hist = Histogram(0, 100, 1);
  Sampled.Hist.recordPc(3);
  Sampled.addArc(5, 6, 1);

  ProfileData A = Unsampled;
  cantFail(A.merge(Sampled));
  EXPECT_EQ(A.Hist.totalSamples(), 1u);
  EXPECT_EQ(A.Hist.highPc(), 100u);
  EXPECT_EQ(callsInto(A, 6), 8u);
  EXPECT_EQ(A.RunCount, 2u);

  ProfileData B = Sampled;
  cantFail(B.merge(Unsampled));
  EXPECT_EQ(B.Hist.totalSamples(), 1u);
  EXPECT_EQ(callsInto(B, 6), 8u);
}

TEST(ProfileDataTest, AddArcSaturatesInsteadOfWrapping) {
  ProfileData D;
  D.addArc(1, 2, UINT64_MAX - 3);
  D.addArc(1, 2, 10);
  D.canonicalizeArcs();
  ASSERT_EQ(D.Arcs.size(), 1u);
  EXPECT_EQ(D.Arcs[0].Count, UINT64_MAX);
  EXPECT_EQ(callsInto(D, 2), UINT64_MAX);
  // A second saturating add stays clamped.
  D.addArc(1, 2, 1);
  D.canonicalizeArcs();
  ASSERT_EQ(D.Arcs.size(), 1u);
  EXPECT_EQ(D.Arcs[0].Count, UINT64_MAX);
}

TEST(ProfileDataTest, MergeRejectsDifferentRates) {
  ProfileData A, B;
  A.TicksPerSecond = 60;
  B.TicksPerSecond = 100;
  Error E = A.merge(B);
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(ProfileDataTest, SampledSeconds) {
  ProfileData D;
  D.TicksPerSecond = 60;
  D.Hist = Histogram(0, 10, 1);
  for (int I = 0; I != 120; ++I)
    D.Hist.recordPc(3);
  EXPECT_DOUBLE_EQ(D.sampledSeconds(), 2.0);
}

//===----------------------------------------------------------------------===//
// Gmon file format
//===----------------------------------------------------------------------===//

namespace {

ProfileData makeSampleData() {
  ProfileData D;
  D.TicksPerSecond = 60;
  D.RunCount = 2;
  D.ArcTableOverflowed = false;
  D.Hist = Histogram(0x1000, 0x2000, 4);
  D.Hist.recordPc(0x1000);
  D.Hist.recordPc(0x1FFF);
  D.Hist.recordPc(0x1800);
  D.addArc(0x1010, 0x1100, 42);
  D.addArc(0x1020, 0x1100, 1);
  D.addArc(0, 0x1000, 1); // Spontaneous caller.
  return D;
}

} // namespace

TEST(GmonFileTest, RoundTrip) {
  ProfileData D = makeSampleData();
  auto Bytes = writeGmon(D);
  auto Back = readGmon(Bytes);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->TicksPerSecond, 60u);
  EXPECT_EQ(Back->RunCount, 2u);
  EXPECT_EQ(Back->Arcs.size(), 3u);
  EXPECT_EQ(Back->Hist.lowPc(), 0x1000u);
  EXPECT_EQ(Back->Hist.highPc(), 0x2000u);
  EXPECT_EQ(Back->Hist.bucketSize(), 4u);
  EXPECT_EQ(Back->Hist.totalSamples(), 3u);
  EXPECT_EQ(callsInto(*Back, 0x1100), 43u);
}

TEST(GmonFileTest, OverflowFlagPersists) {
  ProfileData D = makeSampleData();
  D.ArcTableOverflowed = true;
  auto Back = readGmon(writeGmon(D));
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_TRUE(Back->ArcTableOverflowed);
}

TEST(GmonFileTest, EmptyHistogramRoundTrips) {
  ProfileData D;
  D.addArc(1, 2, 3);
  auto Back = readGmon(writeGmon(D));
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_TRUE(Back->Hist.empty());
  EXPECT_EQ(Back->Arcs.size(), 1u);
}

TEST(GmonFileTest, BadMagicRejected) {
  auto Bytes = writeGmon(makeSampleData());
  Bytes[0] = 'X';
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  EXPECT_NE(Back.message().find("magic"), std::string::npos);
  (void)Back.takeError();
}

TEST(GmonFileTest, BadVersionRejected) {
  auto Bytes = writeGmon(makeSampleData());
  Bytes[4] = 99;
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  (void)Back.takeError();
}

TEST(GmonFileTest, TruncationRejected) {
  auto Bytes = writeGmon(makeSampleData());
  for (size_t Cut : {Bytes.size() - 1, Bytes.size() / 2, size_t(5)}) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto Back = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Back)) << "cut at " << Cut;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, TrailingGarbageRejected) {
  auto Bytes = writeGmon(makeSampleData());
  Bytes.push_back(0);
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  (void)Back.takeError();
}

TEST(GmonFileTest, FileRoundTripAndSumming) {
  std::string P1 = testing::TempDir() + "/gmon_test_1.out";
  std::string P2 = testing::TempDir() + "/gmon_test_2.out";
  ProfileData D = makeSampleData();
  cantFail(writeGmonFile(P1, D));
  cantFail(writeGmonFile(P2, D));

  auto Sum = readAndSumGmonFiles({P1, P2});
  ASSERT_TRUE(static_cast<bool>(Sum));
  EXPECT_EQ(Sum->RunCount, 4u);
  EXPECT_EQ(Sum->Hist.totalSamples(), 6u);
  EXPECT_EQ(callsInto(*Sum, 0x1100), 86u);

  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

TEST(GmonFileTest, SumAccumulatesRunsAcrossManyFiles) {
  // Regression: the runs counter must be the sum over every input, not
  // just the first pair.
  std::vector<std::string> Paths;
  uint32_t ExpectedRuns = 0;
  for (uint32_t Runs : {1u, 2u, 5u}) {
    ProfileData D = makeSampleData();
    D.RunCount = Runs;
    ExpectedRuns += Runs;
    std::string P = testing::TempDir() +
                    format("/gmon_runs_%u.out", Runs);
    cantFail(writeGmonFile(P, D));
    Paths.push_back(P);
  }
  auto Sum = readAndSumGmonFiles(Paths);
  ASSERT_TRUE(static_cast<bool>(Sum));
  EXPECT_EQ(Sum->RunCount, ExpectedRuns);
  EXPECT_EQ(Sum->Hist.totalSamples(), 9u); // 3 samples per file.
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

TEST(GmonFileTest, SumMismatchedRateNamesBothFiles) {
  std::string P1 = testing::TempDir() + "/gmon_rate_60.out";
  std::string P2 = testing::TempDir() + "/gmon_rate_100.out";
  ProfileData A = makeSampleData();
  ProfileData B = makeSampleData();
  B.TicksPerSecond = 100;
  cantFail(writeGmonFile(P1, A));
  cantFail(writeGmonFile(P2, B));

  auto Sum = readAndSumGmonFiles({P1, P2});
  ASSERT_FALSE(static_cast<bool>(Sum));
  EXPECT_NE(Sum.message().find(P1), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find(P2), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find("sampling rates"), std::string::npos);
  (void)Sum.takeError();
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

TEST(GmonFileTest, SumMismatchedHistogramNamesBothFiles) {
  std::string P1 = testing::TempDir() + "/gmon_hist_a.out";
  std::string P2 = testing::TempDir() + "/gmon_hist_b.out";
  ProfileData A = makeSampleData();
  ProfileData B = makeSampleData();
  B.Hist = Histogram(0x1000, 0x4000, 4); // Different [lowpc, highpc).
  cantFail(writeGmonFile(P1, A));
  cantFail(writeGmonFile(P2, B));

  auto Sum = readAndSumGmonFiles({P1, P2});
  ASSERT_FALSE(static_cast<bool>(Sum));
  EXPECT_NE(Sum.message().find(P1), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find(P2), std::string::npos) << Sum.message();
  EXPECT_NE(Sum.message().find("histograms"), std::string::npos)
      << Sum.message();
  (void)Sum.takeError();
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

//===----------------------------------------------------------------------===//
// Corrupted-input corpus: every mutation must produce an error, never a
// crash or a silent misparse.
//===----------------------------------------------------------------------===//

namespace {

/// Patches a little-endian u64 into \p Bytes at \p Offset.
void patchU64(std::vector<uint8_t> &Bytes, size_t Offset, uint64_t Value) {
  ASSERT_LE(Offset + 8, Bytes.size());
  for (size_t I = 0; I != 8; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

// Fixed header layout (see docs/FORMATS.md): magic@0, version@4, hz@8,
// runs@16, flags@20, lowpc@21, highpc@29, bucketsize@37, nbuckets@45,
// counts@53.
constexpr size_t NbucketsOffset = 45;
constexpr size_t CountsOffset = 53;

} // namespace

TEST(GmonFileTest, CorpusTruncatedHeaders) {
  auto Bytes = writeGmon(makeSampleData());
  // Every prefix that cuts inside the header or the histogram lengths must
  // fail cleanly.
  for (size_t Cut = 0; Cut != CountsOffset + 8; ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto Back = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Back)) << "header cut at " << Cut;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, CorpusOversizedNbuckets) {
  auto Valid = writeGmon(makeSampleData());
  // Larger than the plausibility cap, larger than the file, and the
  // all-ones pattern whose byte size would overflow.
  for (uint64_t Bad : std::initializer_list<uint64_t>{
           ~0ULL, 1ULL << 40, (1ULL << 30) / 8 + 1, Valid.size()}) {
    auto Bytes = Valid;
    patchU64(Bytes, NbucketsOffset, Bad);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << "nbuckets = " << Bad;
    (void)Back.takeError();
  }
  // A count that disagrees with the range must also be rejected, even if
  // the buckets would fit in the file.
  auto Bytes = Valid;
  ProfileData D = makeSampleData();
  patchU64(Bytes, NbucketsOffset, D.Hist.numBuckets() - 1);
  auto Back = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(Back));
  EXPECT_NE(Back.message().find("mismatch"), std::string::npos);
  (void)Back.takeError();
}

TEST(GmonFileTest, CorpusOversizedNarcs) {
  ProfileData D = makeSampleData();
  auto Valid = writeGmon(D);
  size_t NarcsOffset = CountsOffset + 8 * D.Hist.numBuckets();
  for (uint64_t Bad : std::initializer_list<uint64_t>{
           ~0ULL, 1ULL << 40, (1ULL << 30) / 8 + 1, 1000}) {
    auto Bytes = Valid;
    patchU64(Bytes, NarcsOffset, Bad);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << "narcs = " << Bad;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, CorpusTrailingGarbage) {
  auto Valid = writeGmon(makeSampleData());
  for (size_t Extra : {size_t(1), size_t(7), size_t(4096)}) {
    auto Bytes = Valid;
    Bytes.insert(Bytes.end(), Extra, 0xAB);
    auto Back = readGmon(Bytes);
    EXPECT_FALSE(static_cast<bool>(Back)) << Extra << " trailing bytes";
    EXPECT_NE(Back.message().find("trailing"), std::string::npos);
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, CorpusArcTableTruncations) {
  ProfileData D = makeSampleData();
  auto Valid = writeGmon(D);
  size_t ArcsStart = CountsOffset + 8 * D.Hist.numBuckets() + 8;
  // Cut inside each arc record.
  for (size_t Cut = ArcsStart; Cut < Valid.size(); Cut += 5) {
    std::vector<uint8_t> Short(Valid.begin(), Valid.begin() + Cut);
    auto Back = readGmon(Short);
    EXPECT_FALSE(static_cast<bool>(Back)) << "arc cut at " << Cut;
    (void)Back.takeError();
  }
}

TEST(GmonFileTest, SumNoFilesFails) {
  auto Sum = readAndSumGmonFiles({});
  EXPECT_FALSE(static_cast<bool>(Sum));
  (void)Sum.takeError();
}

TEST(GmonFileTest, MergeCommutative) {
  SplitMix64 Rng(11);
  ProfileData A, B;
  A.Hist = Histogram(0, 1000, 8);
  B.Hist = Histogram(0, 1000, 8);
  for (int I = 0; I != 200; ++I) {
    A.Hist.recordPc(Rng.nextBelow(1000));
    B.Hist.recordPc(Rng.nextBelow(1000));
    A.addArc(Rng.nextBelow(50), Rng.nextBelow(50), 1 + Rng.nextBelow(5));
    B.addArc(Rng.nextBelow(50), Rng.nextBelow(50), 1 + Rng.nextBelow(5));
  }
  ProfileData AB = A, BA = B;
  cantFail(AB.merge(B));
  cantFail(BA.merge(A));
  EXPECT_EQ(AB.Hist.counts(), BA.Hist.counts());
  for (const ArcRecord &R : AB.Arcs) {
    // Same (from, self) totals in both orders.
    uint64_t Other = 0;
    for (const ArcRecord &S : BA.Arcs)
      if (S.FromPc == R.FromPc && S.SelfPc == R.SelfPc)
        Other = S.Count;
    EXPECT_EQ(R.Count, Other);
  }
}
