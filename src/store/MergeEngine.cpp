//===- store/MergeEngine.cpp ----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "store/MergeEngine.h"

#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <queue>

using namespace gprof;

bool gprof::isCanonicalProfile(const ProfileData &Data) {
  for (size_t I = 1; I < Data.Arcs.size(); ++I) {
    const ArcRecord &P = Data.Arcs[I - 1], &C = Data.Arcs[I];
    if (P.FromPc > C.FromPc ||
        (P.FromPc == C.FromPc && P.SelfPc >= C.SelfPc))
      return false;
  }
  return true;
}

Error gprof::checkMergeCompatible(const ProfileData &A, const ProfileData &B,
                                  const std::string &NameA,
                                  const std::string &NameB) {
  if (A.TicksPerSecond != B.TicksPerSecond)
    return Error::failure(format(
        "cannot sum '%s' with '%s': sampling rates differ "
        "(%llu vs %llu ticks/sec)",
        NameB.c_str(), NameA.c_str(),
        static_cast<unsigned long long>(B.TicksPerSecond),
        static_cast<unsigned long long>(A.TicksPerSecond)));
  // An empty histogram (a run that recorded arcs but exited before the
  // first sample tick) is compatible with anything; merging adopts the
  // non-empty side's geometry.
  if (A.Hist.empty() || B.Hist.empty())
    return Error::success();
  if (A.Hist.lowPc() != B.Hist.lowPc() ||
      A.Hist.highPc() != B.Hist.highPc() ||
      A.Hist.bucketSize() != B.Hist.bucketSize())
    return Error::failure(format(
        "cannot sum '%s' with '%s': histogram ranges differ "
        "([%llu,%llu)/%llu vs [%llu,%llu)/%llu)",
        NameB.c_str(), NameA.c_str(),
        static_cast<unsigned long long>(B.Hist.lowPc()),
        static_cast<unsigned long long>(B.Hist.highPc()),
        static_cast<unsigned long long>(B.Hist.bucketSize()),
        static_cast<unsigned long long>(A.Hist.lowPc()),
        static_cast<unsigned long long>(A.Hist.highPc()),
        static_cast<unsigned long long>(A.Hist.bucketSize())));
  return Error::success();
}

namespace {

/// Heap cursor into one shard's canonical arc table.
struct ArcCursor {
  Address FromPc;
  Address SelfPc;
  size_t Shard;
  size_t Pos;
};

struct CursorGreater {
  bool operator()(const ArcCursor &A, const ArcCursor &B) const {
    if (A.FromPc != B.FromPc)
      return A.FromPc > B.FromPc;
    if (A.SelfPc != B.SelfPc)
      return A.SelfPc > B.SelfPc;
    // Tie-break on shard index so heap order is fully determined.
    return A.Shard > B.Shard;
  }
};

/// Merges canonical, mutually compatible shards in one k-way pass.
ProfileData kWayMerge(const std::vector<const ProfileData *> &Shards) {
  assert(!Shards.empty() && "k-way merge of nothing");
  telemetry::Span MergeSpan("store.merge.kway");
  ProfileData Out;
  Out.TicksPerSecond = Shards.front()->TicksPerSecond;
  Out.RunCount = 0;
  Out.ArcTableOverflowed = false;

  size_t TotalArcs = 0;
  for (const ProfileData *S : Shards) {
    assert(isCanonicalProfile(*S) && "k-way merge needs canonical shards");
    Out.RunCount += S->RunCount;
    Out.ArcTableOverflowed = Out.ArcTableOverflowed || S->ArcTableOverflowed;
    TotalArcs += S->Arcs.size();
    if (!S->Hist.empty()) {
      if (Out.Hist.empty())
        Out.Hist = Histogram(S->Hist.lowPc(), S->Hist.highPc(),
                             S->Hist.bucketSize());
      for (size_t I = 0; I != S->Hist.numBuckets(); ++I)
        Out.Hist.setBucketCount(I, saturatingAdd(Out.Hist.bucketCount(I),
                                                 S->Hist.bucketCount(I)));
    }
  }

  std::priority_queue<ArcCursor, std::vector<ArcCursor>, CursorGreater> Heap;
  for (size_t S = 0; S != Shards.size(); ++S)
    if (!Shards[S]->Arcs.empty()) {
      const ArcRecord &R = Shards[S]->Arcs.front();
      Heap.push({R.FromPc, R.SelfPc, S, 0});
    }

  Out.Arcs.reserve(TotalArcs);
  uint64_t HeapPops = 0;
  uint64_t ArcSaturations = 0;
  while (!Heap.empty()) {
    ArcCursor Top = Heap.top();
    Heap.pop();
    ++HeapPops;
    const ArcRecord &R = Shards[Top.Shard]->Arcs[Top.Pos];
    if (!Out.Arcs.empty() && Out.Arcs.back().FromPc == R.FromPc &&
        Out.Arcs.back().SelfPc == R.SelfPc) {
      if (R.Count > UINT64_MAX - Out.Arcs.back().Count)
        ++ArcSaturations;
      Out.Arcs.back().Count = saturatingAdd(Out.Arcs.back().Count, R.Count);
    } else {
      Out.Arcs.push_back(R);
    }
    if (Top.Pos + 1 != Shards[Top.Shard]->Arcs.size()) {
      const ArcRecord &Next = Shards[Top.Shard]->Arcs[Top.Pos + 1];
      Heap.push({Next.FromPc, Next.SelfPc, Top.Shard, Top.Pos + 1});
    }
  }
  // Gauges, not counters: the tree's leaf decomposition (and therefore
  // how many pops and partial-aggregate saturations the intermediate
  // passes add) depends on pool width.
  telemetry::gauge("store.merge.heap_pops").add(HeapPops);
  if (ArcSaturations != 0)
    telemetry::gauge("store.merge.arc_saturations").add(ArcSaturations);
  return Out;
}

} // namespace

Expected<ProfileData>
gprof::mergeProfiles(const std::vector<ProfileData> &Shards,
                     ThreadPool *Pool) {
  std::vector<const ProfileData *> Ptrs;
  Ptrs.reserve(Shards.size());
  for (const ProfileData &S : Shards)
    Ptrs.push_back(&S);
  return mergeProfiles(Ptrs, Pool);
}

Expected<ProfileData>
gprof::mergeProfiles(const std::vector<const ProfileData *> &Ptrs,
                     ThreadPool *Pool) {
  if (Ptrs.empty())
    return Error::failure("no profiles to merge");
  telemetry::Span Phase("store.merge");
  {
    uint64_t InputArcs = 0;
    for (const ProfileData *S : Ptrs)
      InputArcs += S->Arcs.size();
    telemetry::counter("store.merge.shards").add(Ptrs.size());
    telemetry::counter("store.merge.input_arcs").add(InputArcs);
  }
  // Validate geometry against the first shard that actually has a
  // histogram; empty-histogram shards are compatible with anything, so
  // blindly comparing to shard 0 would let two incompatible sampled
  // shards slip past an unsampled shard 0.
  size_t Ref = 0;
  while (Ref != Ptrs.size() && Ptrs[Ref]->Hist.empty())
    ++Ref;
  if (Ref == Ptrs.size())
    Ref = 0;
  for (size_t I = 0; I != Ptrs.size(); ++I)
    if (I != Ref)
      if (Error E = checkMergeCompatible(*Ptrs[Ref], *Ptrs[I],
                                         format("shard %zu", Ref),
                                         format("shard %zu", I)))
        return E;

  size_t Chunks = Pool ? std::min<size_t>(Pool->size(), Ptrs.size()) : 1;
  if (Chunks <= 1 || Ptrs.size() < 4)
    return kWayMerge(Ptrs);

  // Leaf level of the merge tree: one contiguous chunk per worker.  The
  // chunking never changes the result — every combining operation is
  // commutative and associative and the output order is canonical — so any
  // worker count yields byte-identical data.
  std::vector<std::future<ProfileData>> Futures;
  Futures.reserve(Chunks);
  size_t Begin = 0;
  for (size_t C = 0; C != Chunks; ++C) {
    size_t End = Begin + (Ptrs.size() - Begin) / (Chunks - C);
    std::vector<const ProfileData *> Chunk(Ptrs.begin() + Begin,
                                           Ptrs.begin() + End);
    Futures.push_back(
        Pool->async([Chunk = std::move(Chunk)] { return kWayMerge(Chunk); }));
    Begin = End;
  }

  // Root of the tree: fold the partial aggregates on this thread.
  std::vector<ProfileData> Partials;
  Partials.reserve(Chunks);
  for (std::future<ProfileData> &F : Futures)
    Partials.push_back(F.get());
  std::vector<const ProfileData *> PartialPtrs;
  PartialPtrs.reserve(Partials.size());
  for (const ProfileData &P : Partials)
    PartialPtrs.push_back(&P);
  return kWayMerge(PartialPtrs);
}
