//===- gmon/ProfileData.cpp -----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "gmon/ProfileData.h"

#include "support/Format.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>
#include <utility>

using namespace gprof;

namespace {

/// Mutable tree form used to coalesce and re-order context nodes.  Child
/// maps are keyed (FromPc, SelfPc), so map iteration order *is* the
/// canonical sibling order and emit() needs no separate sort.
struct CctBuilder {
  struct Node {
    uint64_t Calls = 0;
    uint64_t Ticks = 0;
    std::map<std::pair<Address, Address>, uint32_t> Kids;
  };
  /// Nodes[0] is the virtual root above every depth-1 context.
  std::vector<Node> Nodes = std::vector<Node>(1);

  uint32_t childOf(uint32_t Parent, Address FromPc, Address SelfPc) {
    auto [It, Inserted] =
        Nodes[Parent].Kids.try_emplace({FromPc, SelfPc}, 0);
    if (Inserted) {
      It->second = static_cast<uint32_t>(Nodes.size());
      Nodes.emplace_back();
    }
    return It->second;
  }

  /// Folds a canonical-invariant (Parent < index) node vector in,
  /// summing counters of coinciding paths with saturation.
  void addTree(const std::vector<CctNode> &In) {
    std::vector<uint32_t> Mapped(In.size(), 0);
    for (size_t I = 0; I != In.size(); ++I) {
      const CctNode &N = In[I];
      uint32_t Parent =
          N.Parent == CctRootParent ? 0 : Mapped[N.Parent];
      uint32_t Here = childOf(Parent, N.FromPc, N.SelfPc);
      Mapped[I] = Here;
      Nodes[Here].Calls = saturatingAdd(Nodes[Here].Calls, N.Calls);
      Nodes[Here].Ticks = saturatingAdd(Nodes[Here].Ticks, N.Ticks);
    }
  }

  /// Emits the canonical preorder vector (the virtual root is dropped;
  /// its children come back with Parent == CctRootParent).
  std::vector<CctNode> emit() const {
    std::vector<CctNode> Out;
    Out.reserve(Nodes.size() - 1);
    // Explicit preorder stack of (builder node, emitted parent index).
    struct Visit {
      uint32_t Node;
      uint32_t Parent;
      Address FromPc;
      Address SelfPc;
    };
    std::vector<Visit> Stack;
    auto PushKids = [&](uint32_t Node, uint32_t EmittedParent) {
      const auto &Kids = Nodes[Node].Kids;
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
        Stack.push_back({It->second, EmittedParent, It->first.first,
                         It->first.second});
    };
    PushKids(0, CctRootParent);
    while (!Stack.empty()) {
      Visit V = Stack.back();
      Stack.pop_back();
      uint32_t Here = static_cast<uint32_t>(Out.size());
      Out.push_back({V.Parent, V.FromPc, V.SelfPc, Nodes[V.Node].Calls,
                     Nodes[V.Node].Ticks});
      PushKids(V.Node, Here);
    }
    return Out;
  }
};

/// Adds clamped arc-count adds to the one saturation tally.  A gauge: how
/// many adds clamp depends on how the inputs were grouped (pool width,
/// input order), not on the data alone.
void noteArcSaturations(uint64_t N) {
  if (N != 0)
    telemetry::gauge("gmon.arcs.saturated").add(N);
}

/// Heap cursor into one input's canonical arc table.
struct ArcCursor {
  Address FromPc;
  Address SelfPc;
  size_t Input;
  size_t Pos;
};

struct CursorGreater {
  bool operator()(const ArcCursor &A, const ArcCursor &B) const {
    if (A.FromPc != B.FromPc)
      return A.FromPc > B.FromPc;
    if (A.SelfPc != B.SelfPc)
      return A.SelfPc > B.SelfPc;
    // Tie-break on input index so heap order is fully determined.
    return A.Input > B.Input;
  }
};

/// Sums compatible profiles with canonical arc tables in one k-way pass.
ProfileData kWayMerge(const std::vector<const ProfileData *> &Inputs) {
  telemetry::Span MergeSpan("gmon.merge.kway");
  ProfileData Out;
  Out.TicksPerSecond = Inputs.front()->TicksPerSecond;
  Out.RunCount = 0;
  CctBuilder Tree;
  bool HasContexts = false;
  size_t TotalArcs = 0;
  for (const ProfileData *P : Inputs) {
    assert(isCanonicalProfile(*P) && "k-way merge needs canonical arcs");
    Out.RunCount += P->RunCount;
    Out.ArcTableOverflowed = Out.ArcTableOverflowed || P->ArcTableOverflowed;
    Out.ContextTreeOverflowed =
        Out.ContextTreeOverflowed || P->ContextTreeOverflowed;
    TotalArcs += P->Arcs.size();
    // The caller checked every geometry, so the add cannot fail.
    cantFail(Out.Hist.merge(P->Hist));
    if (!P->Contexts.empty()) {
      Tree.addTree(P->Contexts);
      HasContexts = true;
    }
  }
  if (HasContexts)
    Out.Contexts = Tree.emit();

  std::priority_queue<ArcCursor, std::vector<ArcCursor>, CursorGreater> Heap;
  for (size_t I = 0; I != Inputs.size(); ++I)
    if (!Inputs[I]->Arcs.empty()) {
      const ArcRecord &R = Inputs[I]->Arcs.front();
      Heap.push({R.FromPc, R.SelfPc, I, 0});
    }

  Out.Arcs.reserve(TotalArcs);
  uint64_t HeapPops = 0;
  uint64_t Saturations = 0;
  while (!Heap.empty()) {
    ArcCursor Top = Heap.top();
    Heap.pop();
    ++HeapPops;
    const std::vector<ArcRecord> &In = Inputs[Top.Input]->Arcs;
    const ArcRecord &R = In[Top.Pos];
    if (!Out.Arcs.empty() && Out.Arcs.back().FromPc == R.FromPc &&
        Out.Arcs.back().SelfPc == R.SelfPc) {
      if (R.Count > UINT64_MAX - Out.Arcs.back().Count)
        ++Saturations;
      Out.Arcs.back().Count = saturatingAdd(Out.Arcs.back().Count, R.Count);
    } else {
      Out.Arcs.push_back(R);
    }
    if (Top.Pos + 1 != In.size()) {
      const ArcRecord &Next = In[Top.Pos + 1];
      Heap.push({Next.FromPc, Next.SelfPc, Top.Input, Top.Pos + 1});
    }
  }
  // A gauge, like the saturations: the chunking (and so how many pops the
  // intermediate passes add) depends on pool width.
  telemetry::gauge("gmon.merge.heap_pops").add(HeapPops);
  noteArcSaturations(Saturations);
  return Out;
}

} // namespace

Error ProfileData::merge(const ProfileData &Other) {
  auto Sum = mergeProfiles(std::vector<const ProfileData *>{this, &Other});
  if (!Sum)
    return Sum.takeError();
  *this = Sum.takeValue();
  return Error::success();
}

void ProfileData::addContextTree(const std::vector<CctNode> &Nodes) {
  CctBuilder B;
  B.addTree(Contexts);
  B.addTree(Nodes);
  Contexts = B.emit();
}

void ProfileData::canonicalizeContexts() {
  if (Contexts.empty())
    return;
  CctBuilder B;
  B.addTree(Contexts);
  Contexts = B.emit();
}

void ProfileData::canonicalizeArcs() {
  std::sort(Arcs.begin(), Arcs.end(),
            [](const ArcRecord &A, const ArcRecord &B) {
              return A.FromPc != B.FromPc ? A.FromPc < B.FromPc
                                          : A.SelfPc < B.SelfPc;
            });
  // Coalesce duplicate keys in place: addArc appends, so this is where
  // the records of one arc meet.
  size_t Out = 0;
  uint64_t Saturations = 0;
  for (size_t I = 0; I != Arcs.size(); ++I) {
    if (Out != 0 && Arcs[Out - 1].FromPc == Arcs[I].FromPc &&
        Arcs[Out - 1].SelfPc == Arcs[I].SelfPc) {
      if (Arcs[I].Count > UINT64_MAX - Arcs[Out - 1].Count)
        ++Saturations;
      Arcs[Out - 1].Count = saturatingAdd(Arcs[Out - 1].Count, Arcs[I].Count);
      continue;
    }
    Arcs[Out++] = Arcs[I];
  }
  Arcs.resize(Out);
  noteArcSaturations(Saturations);
}

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
        "(histograms [%llu,%llu)/%llu vs [%llu,%llu)/%llu)",
        NameB.c_str(), NameA.c_str(),
        static_cast<unsigned long long>(B.Hist.lowPc()),
        static_cast<unsigned long long>(B.Hist.highPc()),
        static_cast<unsigned long long>(B.Hist.bucketSize()),
        static_cast<unsigned long long>(A.Hist.lowPc()),
        static_cast<unsigned long long>(A.Hist.highPc()),
        static_cast<unsigned long long>(A.Hist.bucketSize())));
  return Error::success();
}

Expected<ProfileData>
gprof::mergeProfiles(const std::vector<ProfileData> &Profiles,
                     ThreadPool *Pool, const std::vector<std::string> *Names) {
  std::vector<const ProfileData *> Ptrs;
  Ptrs.reserve(Profiles.size());
  for (const ProfileData &P : Profiles)
    Ptrs.push_back(&P);
  return mergeProfiles(Ptrs, Pool, Names);
}

Expected<ProfileData>
gprof::mergeProfiles(const std::vector<const ProfileData *> &Profiles,
                     ThreadPool *Pool, const std::vector<std::string> *Names) {
  if (Profiles.empty())
    return Error::failure("no profiles to merge");
  telemetry::Span Phase("gmon.merge");
  auto Name = [&](size_t I) {
    return Names ? (*Names)[I] : format("profile %zu", I);
  };
  // Validate geometry against the first profile that actually has a
  // histogram; empty-histogram profiles are compatible with anything, so
  // blindly comparing to profile 0 would let two incompatible sampled
  // profiles slip past an unsampled profile 0.
  size_t Ref = 0;
  while (Ref != Profiles.size() && Profiles[Ref]->Hist.empty())
    ++Ref;
  if (Ref == Profiles.size())
    Ref = 0;
  for (size_t I = 0; I != Profiles.size(); ++I)
    if (I != Ref)
      if (Error E = checkMergeCompatible(*Profiles[Ref], *Profiles[I],
                                         Name(Ref), Name(I)))
        return E;

  // A non-canonical arc table (a profile built by addArc) is canonicalized
  // on the way in, on a copy: the caller's data stays as it was.
  std::vector<const ProfileData *> Inputs = Profiles;
  std::vector<ProfileData> Copies;
  Copies.reserve(Inputs.size()); // Pointers into Copies must stay put.
  uint64_t InputArcs = 0;
  for (const ProfileData *&P : Inputs) {
    InputArcs += P->Arcs.size();
    if (!isCanonicalProfile(*P)) {
      Copies.push_back(*P);
      Copies.back().canonicalizeArcs();
      P = &Copies.back();
    }
  }
  telemetry::counter("gmon.merge.inputs").add(Inputs.size());
  telemetry::counter("gmon.merge.input_arcs").add(InputArcs);

  size_t Chunks = Pool ? std::min<size_t>(Pool->size(), Inputs.size()) : 1;
  if (Chunks <= 1 || Inputs.size() < 4)
    return kWayMerge(Inputs);

  // Leaf level of the merge tree: one contiguous chunk per worker.  The
  // chunking never changes the result — every combining operation is
  // commutative and associative and the output order is canonical — so any
  // worker count yields byte-identical data.
  std::vector<std::future<ProfileData>> Futures;
  Futures.reserve(Chunks);
  size_t Begin = 0;
  for (size_t C = 0; C != Chunks; ++C) {
    size_t End = Begin + (Inputs.size() - Begin) / (Chunks - C);
    std::vector<const ProfileData *> Chunk(Inputs.begin() + Begin,
                                           Inputs.begin() + End);
    Futures.push_back(
        Pool->async([Chunk = std::move(Chunk)] { return kWayMerge(Chunk); }));
    Begin = End;
  }

  // Root of the tree: fold the partial sums on this thread.
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
