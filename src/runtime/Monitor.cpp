//===- runtime/Monitor.cpp -------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Monitor.h"

#include "support/Telemetry.h"

using namespace gprof;

namespace {
/// Source of never-reused Monitor identities for the thread-local caches.
std::atomic<uint64_t> NextMonitorId{1};
} // namespace

thread_local uint64_t Monitor::CachedMonitorId = 0;
thread_local Monitor::ThreadState *Monitor::CachedState = nullptr;

Monitor::Monitor(Address LowPc, Address HighPc, MonitorOptions Opts)
    : LowPc(LowPc), HighPc(HighPc), Opts(Opts),
      MonitorId(NextMonitorId.fetch_add(1, std::memory_order_relaxed)) {}

Monitor::~Monitor() {
  // Invalidate this thread's cache if it points into us.  Other threads'
  // caches go stale harmlessly: MonitorIds are never reused, so a stale
  // entry can never match a live Monitor.
  if (CachedMonitorId == MonitorId) {
    CachedMonitorId = 0;
    CachedState = nullptr;
  }
}

std::unique_ptr<ArcRecorder> Monitor::makeTable() const {
  switch (Opts.TableKind) {
  case ArcTableKind::Bsd:
    return std::make_unique<BsdArcTable>(LowPc, HighPc, Opts.FromsDensity,
                                         Opts.TosLimit);
  case ArcTableKind::OpenAddressing:
    return std::make_unique<OpenAddressingArcTable>();
  case ArcTableKind::StdMap:
    return std::make_unique<StdMapArcTable>();
  }
  return nullptr;
}

Monitor::ThreadState &Monitor::self() {
  // One comparison against a thread-local on the hot path; everything
  // past it is this thread's private state.
  if (CachedMonitorId == MonitorId)
    return *CachedState;
  return registerThisThread();
}

Monitor::ThreadState &Monitor::registerThisThread() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  ThreadState *&Slot = ByThread[std::this_thread::get_id()];
  if (!Slot) {
    auto State = std::make_unique<ThreadState>();
    State->Arcs = makeTable();
    if (Opts.SampleHistogram)
      State->Hist = Histogram(LowPc, HighPc, Opts.HistBucketSize);
    if (Opts.RecordContexts)
      State->Cct = std::make_unique<CctRecorder>(Opts.CctNodeLimit);
    Slot = State.get();
    Threads.push_back(std::move(State));
  }
  CachedMonitorId = MonitorId;
  CachedState = Slot;
  return *Slot;
}

void Monitor::onCall(Address FromPc, Address SelfPc) {
  const bool Run = Running.load(std::memory_order_relaxed);
  if (Opts.RecordContexts) {
    // The CCT sees every call even while profiling is suspended — a
    // suppressed frame records nothing but keeps the shadow stack
    // balanced for the returns that will follow.
    ThreadState &S = self();
    S.Cct->enter(FromPc, SelfPc, Run);
    if (Run && Opts.RecordArcs)
      S.Arcs->record(FromPc, SelfPc);
    return;
  }
  if (!Run || !Opts.RecordArcs)
    return;
  self().Arcs->record(FromPc, SelfPc);
}

void Monitor::onReturn(Address SelfPc) {
  if (!Opts.RecordContexts)
    return;
  self().Cct->leave(SelfPc);
}

void Monitor::onTick(Address Pc) {
  if (!Running.load(std::memory_order_relaxed))
    return;
  if (Opts.SampleHistogram) {
    ThreadState &S = self();
    ++S.HistTicks;
    S.Hist.recordPc(Pc);
    if (Opts.RecordContexts)
      S.Cct->tick();
    return;
  }
  if (Opts.RecordContexts)
    self().Cct->tick();
}

void Monitor::reset() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &T : Threads) {
    T->Arcs->reset();
    if (Opts.SampleHistogram)
      T->Hist = Histogram(LowPc, HighPc, Opts.HistBucketSize);
    T->HistTicks = 0;
    if (T->Cct)
      T->Cct->reset();
  }
}

bool Monitor::arcTableOverflowed() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &T : Threads)
    if (T->Arcs->overflowed())
      return true;
  return false;
}

bool Monitor::contextTreeOverflowed() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &T : Threads)
    if (T->Cct && T->Cct->overflowed())
      return true;
  return false;
}

CctStats Monitor::cctStats() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  CctStats Sum;
  for (const auto &T : Threads) {
    if (!T->Cct)
      continue;
    CctStats S = T->Cct->stats();
    Sum.Enters += S.Enters;
    Sum.Returns += S.Returns;
    Sum.UnmatchedReturns += S.UnmatchedReturns;
    Sum.Ticks += S.Ticks;
    Sum.RootTicks += S.RootTicks;
    Sum.ChainProbes += S.ChainProbes;
    Sum.MoveToFront += S.MoveToFront;
    Sum.NewNodes += S.NewNodes;
    Sum.Dropped += S.Dropped;
    Sum.Nodes += S.Nodes;
    if (S.MaxDepth > Sum.MaxDepth)
      Sum.MaxDepth = S.MaxDepth;
  }
  return Sum;
}

ArcTableStats Monitor::arcTableStats() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  ArcTableStats Sum;
  for (const auto &T : Threads) {
    ArcTableStats S = T->Arcs->stats();
    Sum.Records += S.Records;
    Sum.ChainProbes += S.ChainProbes;
    Sum.Collisions += S.Collisions;
    Sum.MoveToFront += S.MoveToFront;
    Sum.NewArcs += S.NewArcs;
    Sum.OutsideRange += S.OutsideRange;
    Sum.Dropped += S.Dropped;
    Sum.Entries += S.Entries;
    Sum.SlotsUsed += S.SlotsUsed;
    Sum.SlotCapacity += S.SlotCapacity;
  }
  return Sum;
}

std::vector<ArcTableStats> Monitor::perThreadArcStats() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::vector<ArcTableStats> Out;
  Out.reserve(Threads.size());
  for (const auto &T : Threads)
    Out.push_back(T->Arcs->stats());
  return Out;
}

size_t Monitor::registeredThreads() const {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  return Threads.size();
}

void Monitor::publishTelemetry() const {
  using telemetry::counter;
  ArcTableStats S = arcTableStats();
  uint64_t Ticks = 0, OutOfRange = 0;
  size_t NumThreads;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    NumThreads = Threads.size();
    for (const auto &T : Threads) {
      Ticks += T->HistTicks;
      OutOfRange += T->Hist.outOfRangeSamples();
    }
  }
  counter("runtime.mcount.records").set(S.Records);
  counter("runtime.mcount.chain_probes").set(S.ChainProbes);
  counter("runtime.mcount.collisions").set(S.Collisions);
  counter("runtime.mcount.mtf_hits").set(S.MoveToFront);
  counter("runtime.mcount.new_arcs").set(S.NewArcs);
  counter("runtime.mcount.outside_range").set(S.OutsideRange);
  counter("runtime.mcount.dropped").set(S.Dropped);
  counter("runtime.arcs.entries").set(S.Entries);
  counter("runtime.arcs.slots_used").set(S.SlotsUsed);
  counter("runtime.arcs.slot_capacity").set(S.SlotCapacity);
  counter("runtime.arcs.overflowed").set(arcTableOverflowed() ? 1 : 0);
  counter("runtime.hist.ticks").set(Ticks);
  counter("runtime.hist.out_of_range").set(OutOfRange);
  counter("runtime.hist.buckets")
      .set((HighPc - LowPc + Opts.HistBucketSize - 1) / Opts.HistBucketSize);
  counter("runtime.threads.registered").set(NumThreads);
  if (Opts.RecordContexts) {
    CctStats C = cctStats();
    counter("runtime.cct.enters").set(C.Enters);
    counter("runtime.cct.returns").set(C.Returns);
    counter("runtime.cct.unmatched_returns").set(C.UnmatchedReturns);
    counter("runtime.cct.ticks").set(C.Ticks);
    counter("runtime.cct.root_ticks").set(C.RootTicks);
    counter("runtime.cct.chain_probes").set(C.ChainProbes);
    counter("runtime.cct.mtf_hits").set(C.MoveToFront);
    counter("runtime.cct.new_nodes").set(C.NewNodes);
    counter("runtime.cct.dropped").set(C.Dropped);
    counter("runtime.cct.nodes").set(C.Nodes);
    counter("runtime.cct.max_depth").set(C.MaxDepth);
    counter("runtime.cct.overflowed").set(contextTreeOverflowed() ? 1 : 0);
  }
}

ProfileData Monitor::extract() const {
  ProfileData Data;
  Data.Hist = Histogram(LowPc, HighPc, Opts.HistBucketSize);
  Data.TicksPerSecond = Opts.TicksPerSecond;
  Data.RunCount = 1;
  bool Overflow = false;
  bool CctOverflow = false;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    for (const auto &T : Threads) {
      std::vector<ArcRecord> Arcs = T->Arcs->snapshot();
      Data.Arcs.insert(Data.Arcs.end(), Arcs.begin(), Arcs.end());
      // Geometries are identical by construction (a thread that sampled
      // nothing holds an empty histogram), so the merge cannot fail.
      cantFail(Data.Hist.merge(T->Hist));
      Overflow = Overflow || T->Arcs->overflowed();
      if (T->Cct) {
        Data.addContextTree(T->Cct->snapshot());
        CctOverflow = CctOverflow || T->Cct->overflowed();
      }
    }
  }
  Data.ArcTableOverflowed = Overflow;
  Data.ContextTreeOverflowed = CctOverflow;
  // Canonical arc order: the serialized snapshot depends only on the
  // logical arc multiset, not on which thread discovered which arc first
  // or on any recorder's internal layout (the determinism contract,
  // docs/RUNTIME_MT.md).  addContextTree re-canonicalizes the tree on
  // every fold, so Contexts is already canonical here.
  Data.canonicalizeArcs();
  return Data;
}
