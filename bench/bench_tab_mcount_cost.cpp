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

/// Best-of-3 wall time (ns per record) for replaying the stream \p Reps
/// times through \p Fn.
template <typename Fn> double nsPerRecord(size_t Records, Fn Run) {
  double Best = 1e300;
  for (int Trial = 0; Trial != 3; ++Trial) {
    auto T0 = std::chrono::steady_clock::now();
    Run();
    auto T1 = std::chrono::steady_clock::now();
    double Ns = std::chrono::duration<double, std::nano>(T1 - T0).count() /
                static_cast<double>(Records);
    if (Ns < Best)
      Best = Ns;
  }
  return Best;
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

/// Baseline: the bare table, no monitor, single thread, built before the
/// timed replays.
double directTableCost(size_t Reps) {
  const auto &Events = stream();
  BsdArcTable Table(LowPc, HighPc, 1, 1u << 20);
  double Ns = nsPerRecord(Events.size() * Reps, [&] {
    for (size_t R = 0; R != Reps; ++R)
      for (const auto &[From, Self] : Events)
        Table.record(From, Self);
  });
  benchmark::DoNotOptimize(Table.snapshot().size());
  return Ns;
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

/// Replays the balanced stream \p Reps times into \p Mon.
void replayCct(Monitor &Mon, size_t Reps) {
  for (size_t R = 0; R != Reps; ++R)
    for (const CctEvent &E : cctStream()) {
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

/// Baseline for the contexts-off guard: the bare table over the same
/// balanced stream, built before the timed replays.  Calls record; returns
/// and ticks cost only the dispatch, as they do on the arc-only monitor.
double directCctCost(size_t Reps) {
  BsdArcTable Table(LowPc, HighPc, 1, 1u << 20);
  double Ns = nsPerRecord(cctStream().size() * Reps, [&] {
    for (size_t R = 0; R != Reps; ++R)
      for (const CctEvent &E : cctStream())
        if (E.K == CctEvent::Call)
          Table.record(E.FromPc, E.SelfPc);
  });
  benchmark::DoNotOptimize(Table.snapshot().size());
  return Ns;
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
  double Direct = directCctCost(Reps);
  double OffOneThread = 0, OnOneThread = 0;
  bench::row({"cct", "threads", "ns/event"});
  bench::row({"bare table", "1", format("%.2f", Direct)});
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
  bool Ok = true;
  Ok &= bench::check(OffOneThread <= Direct * 2.5 + 5.0,
                     format("contexts-off prologue path stays within 2.5x "
                            "of the bare table on the same stream "
                            "(%.1f vs bound %.1f ns/event)",
                            OffOneThread, Direct * 2.5 + 5.0));
  Ok &= bench::check(OnOneThread <= OffOneThread * 20.0 + 100.0,
                     "contexts-on stays within a small constant of the "
                     "arc-only path (one shadow-stack push/pop plus a "
                     "chain probe)");
  Json.set("cct_direct_ns_per_event", Direct);
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

  double Direct = directTableCost(Reps);
  Json.beginRow();
  Json.setRow("table", std::string("bsd_direct"));
  Json.setRow("threads", static_cast<uint64_t>(1));
  Json.setRow("ns_per_record", Direct);
  bench::row({"table", "threads", "ns/record"});
  bench::row({"bsd (bare table)", "1", format("%.2f", Direct)});

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
  bool Ok = bench::check(MonitorOneThreadBsd <= Direct * 2.5 + 5.0,
                         "1-thread monitor record() stays within 2.5x of "
                         "the bare table (lock-free per-thread hot path)");
  Json.set("direct_ns_per_record", Direct);
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
