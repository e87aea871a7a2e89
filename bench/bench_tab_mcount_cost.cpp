//===- bench/bench_tab_mcount_cost.cpp - E5: arc table access cost --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §3.1: the arc table "is accessed once per routine call.  Access
/// to it must be as fast as possible so as not to overwhelm the time
/// required to execute the program", which is why gprof hashes on the
/// call-site address with a trivial (identity) hash.  This bench measures
/// the record() fast path of the three arc-table implementations under a
/// realistic call stream — most call sites monomorphic, a few "functional
/// variable" sites with several callees — using google-benchmark, and also
/// reports memory footprints (the space/speed trade the paper discusses).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "gmon/ProfileData.h"
#include "runtime/ArcTable.h"
#include "runtime/Monitor.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

using namespace gprof;

namespace {

constexpr Address LowPc = 0x1000;
constexpr Address HighPc = 0x1000 + (1 << 20); // 1 MiB of "text".

/// A realistic stream of (call site, callee) events: 1000 distinct sites,
/// 95% of them calling a single callee, 5% calling one of 8.
std::vector<std::pair<Address, Address>> makeCallStream(size_t Events,
                                                        uint64_t Seed) {
  SplitMix64 Rng(Seed);
  struct Site {
    Address Pc;
    std::vector<Address> Callees;
  };
  std::vector<Site> Sites;
  for (int I = 0; I != 1000; ++I) {
    Site S;
    S.Pc = LowPc + Rng.nextBelow(HighPc - LowPc);
    size_t NumCallees = Rng.nextBool(0.05) ? 8 : 1;
    for (size_t C = 0; C != NumCallees; ++C)
      S.Callees.push_back(LowPc + Rng.nextBelow(HighPc - LowPc));
    Sites.push_back(std::move(S));
  }
  std::vector<std::pair<Address, Address>> Stream;
  Stream.reserve(Events);
  for (size_t E = 0; E != Events; ++E) {
    // Zipf-ish: low-index sites fire far more often.
    const Site &S = Sites[Rng.nextBelow(1 + Rng.nextBelow(Sites.size()))];
    Stream.emplace_back(S.Pc,
                        S.Callees[Rng.nextBelow(S.Callees.size())]);
  }
  return Stream;
}

const std::vector<std::pair<Address, Address>> &stream() {
  static auto S = makeCallStream(1 << 16, 42);
  return S;
}

template <typename MakeTable>
void runRecordBench(benchmark::State &State, MakeTable Make) {
  const auto &Events = stream();
  auto Table = Make();
  for (auto _ : State) {
    for (const auto &[From, Self] : Events)
      Table->record(From, Self);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Events.size()));
  benchmark::DoNotOptimize(Table->snapshot());
}

void BM_BsdArcTable(benchmark::State &State) {
  runRecordBench(State, [] {
    return std::make_unique<BsdArcTable>(LowPc, HighPc, 1, 1u << 20);
  });
}
BENCHMARK(BM_BsdArcTable);

void BM_BsdArcTableDense(benchmark::State &State) {
  // HASHFRACTION-style space saving: 4 addresses per froms slot.
  runRecordBench(State, [] {
    return std::make_unique<BsdArcTable>(LowPc, HighPc, 4, 1u << 20);
  });
}
BENCHMARK(BM_BsdArcTableDense);

void BM_OpenAddressing(benchmark::State &State) {
  runRecordBench(State,
                 [] { return std::make_unique<OpenAddressingArcTable>(); });
}
BENCHMARK(BM_OpenAddressing);

void BM_StdMap(benchmark::State &State) {
  runRecordBench(State, [] { return std::make_unique<StdMapArcTable>(); });
}
BENCHMARK(BM_StdMap);

//===----------------------------------------------------------------------===//
// Threaded record cost: the per-thread recorder registry under load
//===----------------------------------------------------------------------===//

/// Alternating pairs behind each ratio gate between two timings.
constexpr unsigned GatePairs = 21;
/// Events per timed gate sample.  A sample stays far shorter than a
/// scheduler time slice, so on a loaded host a preemption spoils the odd
/// sample outright instead of landing on every third one.
constexpr size_t GateSlice = 4096;

/// Wall time of one call of \p Run, in ns per record.
template <typename Fn> double nsPerRecordOnce(size_t Records, Fn Run) {
  auto T0 = std::chrono::steady_clock::now();
  Run();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(T1 - T0).count() /
         static_cast<double>(Records);
}

/// Best-of-3 wall time (ns per record) of \p Run.
template <typename Fn> double nsPerRecord(size_t Records, Fn Run) {
  double Best = 1e300;
  for (int Trial = 0; Trial != 3; ++Trial)
    Best = std::min(Best, nsPerRecordOnce(Records, Run));
  return Best;
}

/// Times the next GateSlice events of a stream of \p Size events through
/// \p Replay(Begin, End), in ns per event.  \p Next walks the stream and
/// wraps at its end.
template <typename Fn>
double timeNextSlice(size_t &Next, size_t Size, Fn Replay) {
  size_t Begin = Next, End = std::min(Size, Begin + GateSlice);
  Next = End == Size ? 0 : End;
  return nsPerRecordOnce(End - Begin, [&] { Replay(Begin, End); });
}

/// Replays the stream \p Reps times split round-robin over \p Threads
/// worker threads, all recording through one shared Monitor (so the cost
/// includes the thread-local registry lookup — the real mcount path for a
/// concurrent program).  Returns best-of-3 ns/record.  The Monitor is
/// built before and extracted after the timed replays; one thread replays
/// on the calling thread, so its recorder setup is paid once, before the
/// best trial.
double threadedMonitorCost(ArcTableKind Kind, unsigned Threads,
                           size_t Reps) {
  const auto &Events = stream();
  MonitorOptions MO;
  MO.TableKind = Kind;
  MO.SampleHistogram = false;
  Monitor Mon(LowPc, HighPc, MO);
  auto Replay = [&](unsigned T) {
    for (size_t R = 0; R != Reps; ++R)
      for (size_t I = T; I < Events.size(); I += Threads)
        Mon.onCall(Events[I].first, Events[I].second);
  };
  double Ns = nsPerRecord(Events.size() * Reps, [&] {
    if (Threads == 1) {
      Replay(0);
      return;
    }
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != Threads; ++T)
      Workers.emplace_back(Replay, T);
    for (std::thread &W : Workers)
      W.join();
  });
  benchmark::DoNotOptimize(Mon.extract().Arcs.size());
  return Ns;
}

/// Chain probes (tos entries inspected) per record() so far: the length
/// of the BSD chain walk a call pays in \p Table.
double probesPerRecord(const BsdArcTable &Table) {
  ArcTableStats S = Table.stats();
  return S.Records ? static_cast<double>(S.ChainProbes) /
                         static_cast<double>(S.Records)
                   : 0.0;
}

/// Baseline: the bare table, no monitor, single thread, built before the
/// timed replays.  \p Probes receives its chain probes per record.
double directTableCost(size_t Reps, double &Probes) {
  const auto &Events = stream();
  BsdArcTable Table(LowPc, HighPc, 1, 1u << 20);
  double Ns = nsPerRecord(Events.size() * Reps, [&] {
    for (size_t R = 0; R != Reps; ++R)
      for (const auto &[From, Self] : Events)
        Table.record(From, Self);
  });
  benchmark::DoNotOptimize(Table.snapshot().size());
  Probes = probesPerRecord(Table);
  return Ns;
}

/// The 1-thread monitor gate: the Bsd monitor path against the bare
/// table, timed slice by slice in alternating pairs after one warm-up
/// pass over the whole stream each.  The gate value is the monitor's cost
/// over its bound, so the gate holds when the median is <= 1.
bench::TimedPair monitorGatePair() {
  const auto &Events = stream();
  MonitorOptions MO;
  MO.SampleHistogram = false;
  Monitor Mon(LowPc, HighPc, MO);
  BsdArcTable Table(LowPc, HighPc, 1, 1u << 20);
  auto ToMonitor = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I != End; ++I)
      Mon.onCall(Events[I].first, Events[I].second);
  };
  auto ToTable = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I != End; ++I)
      Table.record(Events[I].first, Events[I].second);
  };
  ToMonitor(0, Events.size());
  ToTable(0, Events.size());
  size_t NextMonitor = 0, NextTable = 0;
  bench::TimedPair P = bench::medianPair(
      GatePairs,
      [&] { return timeNextSlice(NextMonitor, Events.size(), ToMonitor); },
      [&] { return timeNextSlice(NextTable, Events.size(), ToTable); },
      [](double Monitored, double Direct) {
        return Monitored / (Direct * 2.5 + 5.0);
      });
  benchmark::DoNotOptimize(Mon.extract().Arcs.size());
  benchmark::DoNotOptimize(Table.snapshot().size());
  return P;
}

//===----------------------------------------------------------------------===//
// CCT on/off: what the shadow stack adds to the prologue path
//===----------------------------------------------------------------------===//

/// A balanced call/return/tick stream over a small routine alphabet —
/// the event shape the CCT recorder actually sees (the arc stream above
/// has no returns).  Ends with every frame closed.
struct CctEvent {
  enum Kind { Call, Ret, Tick } K;
  Address FromPc = 0, SelfPc = 0;
};

const std::vector<CctEvent> &cctStream() {
  static auto S = [] {
    SplitMix64 Rng(271828);
    std::vector<CctEvent> Out;
    std::vector<Address> Depth;
    while (Out.size() < (1u << 16)) {
      uint64_t R = Rng.nextBelow(100);
      if (R < 44 && Depth.size() < 16) {
        Address Self = LowPc + Rng.nextBelow(64) * 0x100;
        Address From = LowPc + Rng.nextBelow(48) * 0x40;
        Out.push_back({CctEvent::Call, From, Self});
        Depth.push_back(Self);
      } else if (R < 88 && !Depth.empty()) {
        Out.push_back({CctEvent::Ret, 0, Depth.back()});
        Depth.pop_back();
      } else {
        Out.push_back({CctEvent::Tick, 0, 0});
      }
    }
    while (!Depth.empty()) {
      Out.push_back({CctEvent::Ret, 0, Depth.back()});
      Depth.pop_back();
    }
    return Out;
  }();
  return S;
}

/// Replays events [Begin, End) of the balanced stream into \p Mon.
void replayCctRange(Monitor &Mon, size_t Begin, size_t End) {
  const std::vector<CctEvent> &Events = cctStream();
  for (size_t I = Begin; I != End; ++I) {
    const CctEvent &E = Events[I];
    switch (E.K) {
    case CctEvent::Call:
      Mon.onCall(E.FromPc, E.SelfPc);
      break;
    case CctEvent::Ret:
      Mon.onReturn(E.SelfPc);
      break;
    case CctEvent::Tick:
      Mon.onTick(E.SelfPc ? E.SelfPc : LowPc);
      break;
    }
  }
}

/// Replays the balanced stream \p Reps times into \p Mon.
void replayCct(Monitor &Mon, size_t Reps) {
  for (size_t R = 0; R != Reps; ++R)
    replayCctRange(Mon, 0, cctStream().size());
}

/// Best-of-3 ns/event for replaying the balanced stream \p Reps times on
/// \p Threads threads (each thread replays the whole stream into its own
/// per-thread recorder) with context recording on or off.  The Monitor
/// is built before and extracted after the timed replays, so only the
/// per-event path is timed; one thread replays on the calling thread, so
/// its recorder setup is paid once, before the best trial.
double cctMonitorCost(bool Contexts, unsigned Threads, size_t Reps) {
  MonitorOptions MO;
  MO.SampleHistogram = false;
  MO.RecordContexts = Contexts;
  Monitor Mon(LowPc, HighPc, MO);
  double Ns = nsPerRecord(cctStream().size() * Reps * Threads, [&] {
    if (Threads == 1) {
      replayCct(Mon, Reps);
      return;
    }
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != Threads; ++T)
      Workers.emplace_back([&] { replayCct(Mon, Reps); });
    for (std::thread &W : Workers)
      W.join();
  });
  benchmark::DoNotOptimize(Mon.extract().Contexts.size());
  return Ns;
}

/// Baseline for the contexts-off guard: replays events [Begin, End) of
/// the balanced stream into the bare table.  Calls record; returns and
/// ticks cost only the dispatch, as they do on the arc-only monitor.
void replayCctDirect(BsdArcTable &Table, size_t Begin, size_t End) {
  const std::vector<CctEvent> &Events = cctStream();
  for (size_t I = Begin; I != End; ++I)
    if (Events[I].K == CctEvent::Call)
      Table.record(Events[I].FromPc, Events[I].SelfPc);
}

/// Best-of-3 ns/event of the baseline, the table built before the timed
/// replays.  \p Probes receives its chain probes per record (per call
/// event).
double directCctCost(size_t Reps, double &Probes) {
  BsdArcTable Table(LowPc, HighPc, 1, 1u << 20);
  double Ns = nsPerRecord(cctStream().size() * Reps, [&] {
    for (size_t R = 0; R != Reps; ++R)
      replayCctDirect(Table, 0, cctStream().size());
  });
  benchmark::DoNotOptimize(Table.snapshot().size());
  Probes = probesPerRecord(Table);
  return Ns;
}

/// The two 1-thread CCT gates: contexts off against the bare table, and
/// contexts on against contexts off.  Each pair times the same slice of
/// the stream on both sides, after one warm-up pass over the whole stream
/// each.  Gate values are each cost over its bound (the gate holds at
/// <= 1).
struct CctGatePairs {
  bench::TimedPair OffVsDirect;
  bench::TimedPair OnVsOff;
};

CctGatePairs cctGatePairs() {
  MonitorOptions MO;
  MO.SampleHistogram = false;
  Monitor Off(LowPc, HighPc, MO);
  MO.RecordContexts = true;
  Monitor On(LowPc, HighPc, MO);
  BsdArcTable Table(LowPc, HighPc, 1, 1u << 20);
  const size_t Size = cctStream().size();
  auto ToOff = [&](size_t B, size_t E) { replayCctRange(Off, B, E); };
  auto ToOn = [&](size_t B, size_t E) { replayCctRange(On, B, E); };
  auto ToTable = [&](size_t B, size_t E) { replayCctDirect(Table, B, E); };
  ToOff(0, Size);
  ToOn(0, Size);
  ToTable(0, Size);

  CctGatePairs G;
  size_t NextOff = 0, NextOn = 0, NextTable = 0;
  G.OffVsDirect = bench::medianPair(
      GatePairs, [&] { return timeNextSlice(NextOff, Size, ToOff); },
      [&] { return timeNextSlice(NextTable, Size, ToTable); },
      [](double OffNs, double Direct) {
        return OffNs / (Direct * 2.5 + 5.0);
      });
  NextOff = 0;
  G.OnVsOff = bench::medianPair(
      GatePairs, [&] { return timeNextSlice(NextOn, Size, ToOn); },
      [&] { return timeNextSlice(NextOff, Size, ToOff); },
      [](double OnNs, double OffNs) { return OnNs / (OffNs * 20.0 + 100.0); });
  benchmark::DoNotOptimize(Off.extract().Contexts.size());
  benchmark::DoNotOptimize(On.extract().Contexts.size());
  benchmark::DoNotOptimize(Table.snapshot().size());
  return G;
}

/// The CCT on/off section: per-event cost of the full prologue path with
/// context recording off (the arc-only default every existing user is
/// on) and on, at 1/2/8 threads.  The off rows are the no-regression
/// guard: gating the CCT behind MonitorOptions must leave the arc-only
/// path as cheap as the bare table on the same stream.  Returns whether
/// every check passed.
bool runCctSection(bench::BenchJson &Json, size_t Reps) {
  bench::banner("E5-cct", "prologue cost with the calling-context tree "
                          "on and off (tlrun --contexts)");
  double DirectProbes = 0;
  double Direct = directCctCost(Reps, DirectProbes);
  double OffOneThread = 0, OnOneThread = 0;
  bench::row({"cct", "threads", "ns/event"});
  bench::row({"bare table", "1", format("%.2f", Direct)});
  std::printf("bare table: %.2f chain probes per record\n", DirectProbes);
  for (bool Contexts : {false, true}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      double Ns = cctMonitorCost(Contexts, Threads, Reps);
      if (Threads == 1)
        (Contexts ? OnOneThread : OffOneThread) = Ns;
      Json.beginRow();
      Json.setRow("table", std::string(Contexts ? "cct_on" : "cct_off"));
      Json.setRow("threads", static_cast<uint64_t>(Threads));
      Json.setRow("ns_per_record", Ns);
      bench::row({Contexts ? "on" : "off", format("%u", Threads),
                  format("%.2f", Ns)});
    }
  }
  CctGatePairs G = cctGatePairs();
  bool Ok = true;
  Ok &= bench::check(G.OffVsDirect.Value <= 1.0,
                     format("contexts-off prologue path stays within 2.5x "
                            "of the bare table on the same stream "
                            "(median of %u alternating pairs: %.1f vs "
                            "bound %.1f ns/event)",
                            GatePairs, G.OffVsDirect.A,
                            G.OffVsDirect.B * 2.5 + 5.0));
  Ok &= bench::check(G.OnVsOff.Value <= 1.0,
                     format("contexts-on stays within a small constant of "
                            "the arc-only path (one shadow-stack push/pop "
                            "plus a chain probe; median of %u alternating "
                            "pairs: %.1f vs bound %.1f ns/event)",
                            GatePairs, G.OnVsOff.A,
                            G.OnVsOff.B * 20.0 + 100.0));
  Json.set("cct_direct_ns_per_event", Direct);
  Json.set("cct_direct_probes_per_record", DirectProbes);
  Json.set("cct_off_1t_ns_per_event", OffOneThread);
  Json.set("cct_on_1t_ns_per_event", OnOneThread);
  return Ok;
}

/// The thread-count section: per-record cost of the shared-Monitor path
/// at 1/2/8 threads for every table kind, against the bare-table
/// baseline.  Emits BENCH_mcount_cost.json for the perf tooling and
/// checks the acceptance claim that routing record() through the
/// per-thread registry does not regress the 1-thread cost.  Returns
/// whether every check passed.
bool runThreadSection(bool Smoke) {
  const size_t Reps = Smoke ? 1 : 8;
  bench::banner("E5-mt", "mcount cost with per-thread recorders "
                         "(docs/RUNTIME_MT.md)");
  bench::BenchJson Json("mcount_cost");
  const auto &Events = stream();
  Json.set("events_per_rep", static_cast<uint64_t>(Events.size()));
  Json.set("reps", static_cast<uint64_t>(Reps));

  double DirectProbes = 0;
  double Direct = directTableCost(Reps, DirectProbes);
  Json.beginRow();
  Json.setRow("table", std::string("bsd_direct"));
  Json.setRow("threads", static_cast<uint64_t>(1));
  Json.setRow("ns_per_record", Direct);
  bench::row({"table", "threads", "ns/record"});
  bench::row({"bsd (bare table)", "1", format("%.2f", Direct)});
  std::printf("bare table: %.2f chain probes per record\n", DirectProbes);

  struct KindRow {
    ArcTableKind Kind;
    const char *Name;
  };
  double MonitorOneThreadBsd = 0;
  for (KindRow K : {KindRow{ArcTableKind::Bsd, "bsd"},
                    KindRow{ArcTableKind::OpenAddressing, "open"},
                    KindRow{ArcTableKind::StdMap, "map"}}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      double Ns = threadedMonitorCost(K.Kind, Threads, Reps);
      if (K.Kind == ArcTableKind::Bsd && Threads == 1)
        MonitorOneThreadBsd = Ns;
      Json.beginRow();
      Json.setRow("table", std::string(K.Name));
      Json.setRow("threads", static_cast<uint64_t>(Threads));
      Json.setRow("ns_per_record", Ns);
      bench::row({K.Name, format("%u", Threads), format("%.2f", Ns)});
    }
  }

  // The registry adds one thread-local compare to the bare record();
  // allow generous headroom for machine noise, but a regression to a
  // locked or atomic hot path would blow far past this.
  bench::TimedPair Gate = monitorGatePair();
  bool Ok = bench::check(Gate.Value <= 1.0,
                         format("1-thread monitor record() stays within "
                                "2.5x of the bare table (lock-free "
                                "per-thread hot path; median of %u "
                                "alternating pairs: %.1f vs bound %.1f "
                                "ns/record)",
                                GatePairs, Gate.A, Gate.B * 2.5 + 5.0));
  Json.set("direct_ns_per_record", Direct);
  Json.set("direct_probes_per_record", DirectProbes);
  Json.set("monitor_1t_ns_per_record", MonitorOneThreadBsd);
  Ok &= runCctSection(Json, Reps);
  Json.write();
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  // --smoke: one small rep per row, no google-benchmark loops — for the
  // bench_cct_smoke ctest hook, so the CCT on/off section and the
  // BENCH_mcount_cost.json emission cannot rot.
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("E5: arc-table fast path (one access per routine call, "
              "section 3.1)\n");

  // Space column: the paper trades a large directly-mapped froms[] for a
  // trivial hash.
  {
    BsdArcTable Dense(LowPc, HighPc, 1);
    BsdArcTable Sparse(LowPc, HighPc, 4);
    OpenAddressingArcTable Open;
    for (const auto &[From, Self] : stream()) {
      Dense.record(From, Self);
      Sparse.record(From, Self);
      Open.record(From, Self);
    }
    std::printf("memory after replaying the stream:\n");
    std::printf("  bsd froms density 1 : %8zu KiB (trivial hash, exact "
                "call sites)\n",
                Dense.memoryBytes() / 1024);
    std::printf("  bsd froms density 4 : %8zu KiB (merges neighbouring "
                "sites)\n",
                Sparse.memoryBytes() / 1024);
    std::printf("  open addressing     : %8zu KiB (pair-keyed table the "
                "paper rejected)\n\n",
                Open.memoryBytes() / 1024);
  }

  bool Ok = runThreadSection(Smoke);

  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return Ok ? 0 : 1;
}
