//===- tests/telemetry_test.cpp - The telemetry layer's own tests ---------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability substrate: registry semantics (counters,
/// gauges, reset), span recording across thread-pool workers (the per-
/// thread buffers run under TSan via GPROF_SANITIZE=thread), the Chrome
/// trace writer round-tripped through its own validator, and the central
/// promise of docs/TELEMETRY.md — every Kind::Counter value produced by
/// the analysis pipeline is identical at any thread count.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "gmon/GmonFile.h"
#include "runtime/ArcTable.h"
#include "runtime/Monitor.h"
#include "support/EventLog.h"
#include "support/FileUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/TraceWriter.h"
#include "tests/support/Oracles.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include <unistd.h>

using namespace gprof;
using telemetry::Kind;
using telemetry::Metric;
using telemetry::Registry;
using telemetry::SpanRecord;

namespace {

/// Every test shares the process-wide registry, so each starts from a
/// clean slate: values zeroed, spans dropped, span recording off.
void freshRegistry() {
  Registry::instance().enableSpans(false);
  Registry::instance().resetValues();
}

/// Snapshot of every Kind::Counter value, keyed by name.  Gauges are
/// deliberately excluded: they record scheduling facts and carry no
/// cross-thread-count guarantee.
std::map<std::string, uint64_t> counterSnapshot() {
  std::map<std::string, uint64_t> Out;
  for (const Metric *M : Registry::instance().metrics())
    if (M->kind() == Kind::Counter)
      Out[M->name()] = M->value();
  return Out;
}

TEST(TelemetryTest, CounterAndGaugeBasics) {
  freshRegistry();
  Metric &C = telemetry::counter("test.basics.counter");
  C.add(3);
  C.add(4);
  EXPECT_EQ(C.value(), 7u);
  // Same name, same object.
  EXPECT_EQ(&telemetry::counter("test.basics.counter"), &C);
  // A name keeps its first-registered kind.
  EXPECT_EQ(Registry::instance().gauge("test.basics.counter").kind(),
            Kind::Counter);

  Metric &G = telemetry::gauge("test.basics.gauge");
  G.set(10);
  G.max(5); // Lower: no effect.
  EXPECT_EQ(G.value(), 10u);
  G.max(25);
  EXPECT_EQ(G.value(), 25u);
  EXPECT_EQ(G.kind(), Kind::Gauge);
}

TEST(TelemetryTest, MetricsAreSortedAndSurviveReset) {
  freshRegistry();
  Metric &B = telemetry::counter("test.sort.b");
  telemetry::counter("test.sort.a").add(1);
  B.add(2);

  std::vector<const Metric *> All = Registry::instance().metrics();
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LT(All[I - 1]->name(), All[I]->name());

  Registry::instance().resetValues();
  // Values are zeroed but the registration (and the reference) survives.
  EXPECT_EQ(B.value(), 0u);
  B.add(5);
  EXPECT_EQ(telemetry::counter("test.sort.b").value(), 5u);
}

TEST(TelemetryTest, DisabledSpansRecordNothing) {
  freshRegistry();
  {
    telemetry::Span S("test.disabled");
    (void)S;
  }
  EXPECT_TRUE(Registry::instance().collectSpans().empty());
}

TEST(TelemetryTest, SpansRecordAcrossPoolThreads) {
  // The interesting case for TSan: pool workers write their own buffers
  // while the main thread enables/collects.
  freshRegistry();
  Registry::instance().enableSpans(true);
  Registry::instance().setCurrentThreadName("main");
  {
    telemetry::Span Outer("test.outer");
    ThreadPool Pool(4);
    for (int I = 0; I != 32; ++I)
      Pool.async([] { telemetry::Span Inner("test.inner"); });
    Pool.wait();
  }
  Registry::instance().enableSpans(false);

  std::vector<SpanRecord> Spans = Registry::instance().collectSpans();
  size_t Outer = 0, Inner = 0, PoolJobs = 0;
  for (const SpanRecord &S : Spans) {
    EXPECT_LE(S.BeginNs, S.EndNs);
    Outer += S.Name == "test.outer";
    Inner += S.Name == "test.inner";
    PoolJobs += S.Name == "pool.job"; // The pool wraps each job itself.
  }
  EXPECT_EQ(Outer, 1u);
  EXPECT_EQ(Inner, 32u);
  EXPECT_EQ(PoolJobs, 32u);
  // Sorted by (tid, begin).
  for (size_t I = 1; I < Spans.size(); ++I) {
    EXPECT_LE(Spans[I - 1].Tid, Spans[I].Tid);
    if (Spans[I - 1].Tid == Spans[I].Tid)
      EXPECT_LE(Spans[I - 1].BeginNs, Spans[I].BeginNs);
  }
  // The main thread kept its name; workers registered theirs.
  bool SawMain = false, SawWorker = false;
  for (const auto &[Tid, Name] : Registry::instance().threadNames()) {
    SawMain |= Name == "main";
    SawWorker |= Name.rfind("worker-", 0) == 0;
  }
  EXPECT_TRUE(SawMain);
  EXPECT_TRUE(SawWorker);
}

TEST(TelemetryTest, StatsJsonIsValidAndCarriesKinds) {
  freshRegistry();
  telemetry::counter("test.json.counter").add(42);
  telemetry::gauge("test.json.gauge").set(7);

  std::string Json = Registry::instance().renderStatsJson("telemetry_test");
  auto Consumed = validateJson(Json);
  ASSERT_TRUE(Consumed.hasValue()) << Consumed.message();
  EXPECT_NE(Json.find("\"bench\": \"telemetry_test\""), std::string::npos);
  EXPECT_NE(Json.find("{\"metric\": \"test.json.counter\", "
                      "\"kind\": \"counter\", \"value\": 42}"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("{\"metric\": \"test.json.gauge\", "
                      "\"kind\": \"gauge\", \"value\": 7}"),
            std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Duration histograms
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketIndexAndBounds) {
  using telemetry::DurationHistogram;
  using telemetry::HistogramBucketCount;
  EXPECT_EQ(DurationHistogram::bucketIndex(0), 0u);
  EXPECT_EQ(DurationHistogram::bucketIndex(1), 1u);
  EXPECT_EQ(DurationHistogram::bucketIndex(2), 2u);
  EXPECT_EQ(DurationHistogram::bucketIndex(3), 2u);
  EXPECT_EQ(DurationHistogram::bucketIndex(4), 3u);
  EXPECT_EQ(DurationHistogram::bucketIndex(1023), 10u);
  EXPECT_EQ(DurationHistogram::bucketIndex(1024), 11u);
  EXPECT_EQ(DurationHistogram::bucketIndex(UINT64_MAX),
            HistogramBucketCount - 1);

  EXPECT_EQ(DurationHistogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(DurationHistogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(DurationHistogram::bucketUpperBound(2), 3u);
  EXPECT_EQ(DurationHistogram::bucketUpperBound(10), 1023u);
  EXPECT_EQ(DurationHistogram::bucketUpperBound(HistogramBucketCount - 1),
            UINT64_MAX);
  // Every value fits under its own bucket's upper bound, and above the
  // previous bucket's.
  for (uint64_t V : std::vector<uint64_t>{0, 1, 2, 7, 1000, 123456789,
                                          uint64_t(1) << 62, UINT64_MAX}) {
    size_t B = DurationHistogram::bucketIndex(V);
    EXPECT_LE(V, DurationHistogram::bucketUpperBound(B)) << V;
    if (B > 0 && B < HistogramBucketCount - 1) {
      EXPECT_GT(V, DurationHistogram::bucketUpperBound(B - 1)) << V;
    }
  }
}

TEST(HistogramTest, ExactPercentilesOnKnownFill) {
  freshRegistry();
  telemetry::DurationHistogram &H =
      telemetry::histogram("test.hist.percentiles");
  for (uint64_t V : {0ull, 1ull, 1ull, 2ull, 1000ull})
    H.record(V);

  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.count(), 5u);
  EXPECT_EQ(S.Sum, 1004u);
  // Ranks are exact: p50 -> rank 3 of {0,1,1,2,1000} lands in the
  // width-1 bucket (upper bound 1); p95/p99 -> rank 5 lands in the
  // bucket holding 1000 (upper bound 1023).
  EXPECT_EQ(S.percentile(0.50), 1u);
  EXPECT_EQ(S.percentile(0.95), 1023u);
  EXPECT_EQ(S.percentile(0.99), 1023u);

  telemetry::HistogramSnapshot Empty;
  EXPECT_EQ(Empty.count(), 0u);
  EXPECT_EQ(Empty.percentile(0.50), 0u);
}

TEST(HistogramTest, MergeIsOrderIndependent) {
  telemetry::HistogramSnapshot A, B, C;
  auto Fill = [](telemetry::HistogramSnapshot &S,
                 std::vector<uint64_t> Values) {
    for (uint64_t V : Values) {
      S.Counts[telemetry::DurationHistogram::bucketIndex(V)] += 1;
      S.Sum += V;
    }
  };
  Fill(A, {0, 1, 5});
  Fill(B, {1000, 1000000, 3});
  Fill(C, {7, 7, 7, 1u << 20});

  telemetry::HistogramSnapshot Fwd, Rev;
  Fwd.merge(A);
  Fwd.merge(B);
  Fwd.merge(C);
  Rev.merge(C);
  Rev.merge(B);
  Rev.merge(A);
  EXPECT_EQ(Fwd.Counts, Rev.Counts);
  EXPECT_EQ(Fwd.Sum, Rev.Sum);
  EXPECT_EQ(Fwd.count(), 10u);
  EXPECT_EQ(Fwd.percentile(0.50), Rev.percentile(0.50));
  EXPECT_EQ(Fwd.percentile(0.99), Rev.percentile(0.99));
}

TEST(HistogramTest, RegistrySemanticsAndReset) {
  freshRegistry();
  telemetry::DurationHistogram &H = telemetry::histogram("test.hist.reg.b");
  telemetry::histogram("test.hist.reg.a").record(1);
  // Same name, same object.
  EXPECT_EQ(&telemetry::histogram("test.hist.reg.b"), &H);
  H.record(10);
  EXPECT_EQ(H.snapshot().count(), 1u);

  // Sorted by name, separate namespace from counters/gauges.
  std::vector<const telemetry::DurationHistogram *> All =
      Registry::instance().histograms();
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LT(All[I - 1]->name(), All[I]->name());
  telemetry::counter("test.hist.reg.b").add(5); // Does not clash.
  EXPECT_EQ(telemetry::counter("test.hist.reg.b").value(), 5u);

  // resetValues zeroes buckets and sum; registration and references
  // survive.
  Registry::instance().resetValues();
  EXPECT_EQ(H.snapshot().count(), 0u);
  EXPECT_EQ(H.snapshot().Sum, 0u);
  H.record(3);
  EXPECT_EQ(telemetry::histogram("test.hist.reg.b").snapshot().count(), 1u);
}

TEST(HistogramTest, ConcurrentRecordingIsLossless) {
  // The TSan-relevant case: many threads hammer one histogram.  Relaxed
  // atomics may interleave, but no increment may be lost.
  freshRegistry();
  telemetry::DurationHistogram &H =
      telemetry::histogram("test.hist.concurrent");
  constexpr unsigned Threads = 8, PerThread = 5000;
  {
    ThreadPool Pool(Threads);
    for (unsigned T = 0; T != Threads; ++T)
      Pool.async([&H] {
        for (unsigned I = 0; I != PerThread; ++I)
          H.record(I % 1024);
      });
    Pool.wait();
  }
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.count(), uint64_t(Threads) * PerThread);
  uint64_t ExpectSum = 0;
  for (unsigned I = 0; I != PerThread; ++I)
    ExpectSum += I % 1024;
  EXPECT_EQ(S.Sum, uint64_t(Threads) * ExpectSum);
}

TEST(HistogramTest, StatsJsonRowsAndRenderOptions) {
  freshRegistry();
  telemetry::counter("test.row.counter").add(1);
  telemetry::DurationHistogram &H = telemetry::histogram("test.row.hist");
  for (uint64_t V : {0ull, 1ull, 1ull, 2ull, 1000ull})
    H.record(V);

  std::string Json = Registry::instance().renderStatsJson("telemetry_test");
  ASSERT_TRUE(validateJson(Json).hasValue()) << Json;
  EXPECT_NE(Json.find("{\"metric\": \"test.row.hist\", "
                      "\"kind\": \"histogram\", \"count\": 5, "
                      "\"sum\": 1004, \"p50\": 1, \"p95\": 1023, "
                      "\"p99\": 1023}"),
            std::string::npos)
      << Json;

  // MetricPrefix filters both metric and histogram rows; ExtraFields
  // land as top-level members ahead of "results".
  Registry::StatsRenderOptions RO;
  RO.MetricPrefix = "test.row.h";
  RO.ExtraFields.emplace_back("uptime_ns", "12345");
  std::string Filtered =
      Registry::instance().renderStatsJson("telemetry_test", RO);
  ASSERT_TRUE(validateJson(Filtered).hasValue()) << Filtered;
  EXPECT_NE(Filtered.find("test.row.hist"), std::string::npos);
  EXPECT_EQ(Filtered.find("test.row.counter"), std::string::npos);
  EXPECT_NE(Filtered.find("\"uptime_ns\": 12345"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// EventLog
//===----------------------------------------------------------------------===//

TEST(EventLogTest, EmitSinceAndRingBound) {
  EventLog &Log = EventLog::instance();
  Log.clear();
  const uint64_t Base = Log.lastSeq();
  const size_t OldCapacity = Log.capacity();

  Log.emit("test.event", jsonStringField("why", "because") + ", " +
                             jsonIntField("n", 7));
  Log.emit("test.event2");
  EXPECT_EQ(Log.lastSeq(), Base + 2);

  std::vector<LogEvent> All = Log.since(Base);
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].Type, "test.event");
  EXPECT_EQ(All[0].Seq, Base + 1);
  EXPECT_LE(All[0].TimeNs, All[1].TimeNs);
  // Each event renders as one valid JSON object; the array form is valid
  // too (it is embedded verbatim into the QUERY_STATS response).
  for (const LogEvent &E : All)
    EXPECT_TRUE(validateJson(E.toJson()).hasValue()) << E.toJson();
  EXPECT_NE(All[0].toJson().find("\"why\": \"because\""), std::string::npos);
  EXPECT_NE(All[0].toJson().find("\"n\": 7"), std::string::npos);
  EXPECT_TRUE(validateJson(EventLog::renderArray(All)).hasValue());
  // The incremental tail skips already-seen events.
  std::vector<LogEvent> Tail = Log.since(Base + 1);
  ASSERT_EQ(Tail.size(), 1u);
  EXPECT_EQ(Tail[0].Type, "test.event2");
  EXPECT_TRUE(Log.since(Base + 2).empty());

  // The ring drops oldest events but sequence numbering keeps counting.
  Log.setCapacity(4);
  for (int I = 0; I != 10; ++I)
    Log.emit("test.flood");
  std::vector<LogEvent> Kept = Log.since(0);
  ASSERT_EQ(Kept.size(), 4u);
  EXPECT_EQ(Kept.back().Seq, Base + 12);
  EXPECT_EQ(Kept.front().Seq, Base + 9);
  EXPECT_EQ(Log.lastSeq(), Base + 12);

  Log.setCapacity(OldCapacity);
  Log.clear();
}

TEST(EventLogTest, FileSinkAppendsJsonLines) {
  EventLog &Log = EventLog::instance();
  Log.clear();
  std::string Path =
      testing::TempDir() + "/gprof_eventlog_" + std::to_string(getpid());
  std::remove(Path.c_str());

  ASSERT_FALSE(Log.setSinkFile(Path));
  Log.emit("test.sink", jsonIntField("a", 1));
  Log.emit("test.sink", jsonStringField("b", "two\nlines"));
  Log.closeSink();
  Log.emit("test.unsinked"); // After closeSink: must not reach the file.

  std::string Text = cantFail(readFileText(Path));
  size_t Lines = 0;
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t End = Text.find('\n', Pos);
    ASSERT_NE(End, std::string::npos) << "sink lines end in newline";
    std::string Line = Text.substr(Pos, End - Pos);
    EXPECT_TRUE(validateJson(Line).hasValue()) << Line;
    ++Lines;
    Pos = End + 1;
  }
  EXPECT_EQ(Lines, 2u);
  EXPECT_NE(Text.find("\"event\": \"test.sink\""), std::string::npos);
  EXPECT_EQ(Text.find("test.unsinked"), std::string::npos);
  std::remove(Path.c_str());
  Log.clear();
}

//===----------------------------------------------------------------------===//
// TraceWriter
//===----------------------------------------------------------------------===//

TEST(TraceWriterTest, RoundTripsThroughValidator) {
  TraceWriter W;
  W.setProcessName("test-proc");
  W.addThreadName(0, "main");
  W.addThreadName(1, "worker-0");
  // Names needing escapes must survive the round trip.
  W.addCompleteEvent("phase \"one\"\n", "layer", 0, 1500, 2500);
  W.addCompleteEvent("phase.two", "layer", 1, 4000, 1000);

  std::string Json = W.render();
  auto Stats = validateTraceJson(Json);
  ASSERT_TRUE(Stats.hasValue()) << Stats.message();
  // 2 complete + 2 thread_name + 1 process_name.
  EXPECT_EQ(Stats->Events, 5u);
  EXPECT_EQ(Stats->CompleteEvents, 2u);
  EXPECT_EQ(Stats->MetaEvents, 3u);
  EXPECT_EQ(Stats->NameCounts.at("thread_name"), 2u);
  EXPECT_EQ(Stats->NameCounts.at("process_name"), 1u);
  EXPECT_EQ(Stats->NameCounts.at("phase.two"), 1u);
  EXPECT_EQ(Stats->Tids.count(0), 1u);
  EXPECT_EQ(Stats->Tids.count(1), 1u);
  // ns precision carried as fractional microseconds.
  EXPECT_NE(Json.find("\"ts\":1.500"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"dur\":2.500"), std::string::npos) << Json;
}

TEST(TraceWriterTest, ValidatorRejectsMalformedDocuments) {
  // Syntax errors.
  EXPECT_FALSE(validateJson("{\"a\": }").hasValue());
  EXPECT_FALSE(validateJson("{\"a\": 1} trailing").hasValue());
  EXPECT_FALSE(validateJson("{\"a\": \"unterminated}").hasValue());
  EXPECT_FALSE(validateJson("[1, 2,]").hasValue());
  // Valid JSON, wrong shape.
  EXPECT_FALSE(validateTraceJson("[1, 2]").hasValue());
  EXPECT_FALSE(validateTraceJson("{\"notTraceEvents\": []}").hasValue());
  EXPECT_FALSE(
      validateTraceJson("{\"traceEvents\": [{\"ph\": \"X\"}]}").hasValue())
      << "an event without a name must be rejected";
  EXPECT_FALSE(
      validateTraceJson("{\"traceEvents\": [{\"name\": \"n\"}]}").hasValue())
      << "an event without a phase must be rejected";
  // Minimal accepted document.
  auto Ok = validateTraceJson(
      "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"n\", \"tid\": 3}]}");
  ASSERT_TRUE(Ok.hasValue()) << Ok.message();
  EXPECT_EQ(Ok->CompleteEvents, 1u);
  EXPECT_EQ(Ok->Tids.count(3), 1u);
}

TEST(TraceWriterTest, FromTelemetryCarriesPerThreadTracks) {
  freshRegistry();
  Registry::instance().enableSpans(true);
  Registry::instance().setCurrentThreadName("main");
  {
    telemetry::Span S("layer.phase");
    ThreadPool Pool(2);
    for (int I = 0; I != 8; ++I)
      Pool.async([] { telemetry::Span J("layer.job"); });
    Pool.wait();
  }
  Registry::instance().enableSpans(false);

  TraceWriter W = TraceWriter::fromTelemetry("gprof");
  auto Stats = validateTraceJson(W.render());
  ASSERT_TRUE(Stats.hasValue()) << Stats.message();
  EXPECT_EQ(Stats->NameCounts.at("layer.phase"), 1u);
  EXPECT_EQ(Stats->NameCounts.at("layer.job"), 8u);
  // main + at least one worker means at least two distinct tracks.
  EXPECT_GE(Stats->Tids.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Arc-table access statistics
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, BsdArcTableStatsAreExact) {
  BsdArcTable T(0x1000, 0x2000);
  T.record(0x1100, 0x1200); // New arc, empty slot.
  T.record(0x1100, 0x1200); // Hit at chain head: one probe, no collision.
  T.record(0x1100, 0x1300); // Same site, new callee: collision + new arc.
  T.record(0x1100, 0x1200); // Hit behind head: collision + move-to-front.
  T.record(0x0500, 0x1200); // Call site outside [low, high): kept exactly.

  ArcTableStats S = T.stats();
  EXPECT_EQ(S.Records, 5u);
  EXPECT_EQ(S.NewArcs, 2u);
  EXPECT_EQ(S.OutsideRange, 1u);
  EXPECT_EQ(S.MoveToFront, 1u);
  EXPECT_EQ(S.Collisions, 2u);
  EXPECT_EQ(S.ChainProbes, 4u); // 0 + 1 + 1 + 2 probes.
  EXPECT_EQ(S.Dropped, 0u);
  EXPECT_EQ(S.Entries, 3u); // Two chained arcs + one outside.
  EXPECT_EQ(S.SlotsUsed, 1u);
  EXPECT_EQ(S.SlotCapacity, 0x1000u);

  T.reset();
  EXPECT_EQ(T.stats().Records, 0u);
  EXPECT_EQ(T.stats().Entries, 0u);
}

TEST(TelemetryTest, ArcTableStatsAgreeOnRecordsAndArcs) {
  // All three recorders must agree on the data-derived counts for the
  // same call sequence (probe behaviour legitimately differs).
  BsdArcTable Bsd(0x1000, 0x2000);
  OpenAddressingArcTable Open;
  StdMapArcTable Map;
  for (ArcRecorder *T :
       std::vector<ArcRecorder *>{&Bsd, &Open, &Map}) {
    for (int I = 0; I != 50; ++I)
      T->record(0x1100 + (I % 5) * 8, 0x1800 + (I % 3) * 16);
    ArcTableStats S = T->stats();
    EXPECT_EQ(S.Records, 50u);
    EXPECT_EQ(S.NewArcs, 15u);
    EXPECT_EQ(S.Entries, 15u);
  }
}

TEST(TelemetryTest, MonitorPublishesRuntimeCounters) {
  freshRegistry();
  MonitorOptions MO;
  Monitor Mon(0x1000, 0x2000, MO);
  Mon.onCall(0x1100, 0x1200);
  Mon.onCall(0x1100, 0x1200);
  Mon.onCall(0x1104, 0x1300);
  Mon.onTick(0x1150);
  Mon.onTick(0x1250);
  Mon.publishTelemetry();

  auto Counters = counterSnapshot();
  EXPECT_EQ(Counters.at("runtime.mcount.records"), 3u);
  EXPECT_EQ(Counters.at("runtime.mcount.new_arcs"), 2u);
  EXPECT_EQ(Counters.at("runtime.hist.ticks"), 2u);
  EXPECT_EQ(Counters.at("runtime.arcs.overflowed"), 0u);
}

//===----------------------------------------------------------------------===//
// The determinism contract: pipeline counters are pure functions of the data
//===----------------------------------------------------------------------===//

/// Compiles and profiles one corpus program under the golden-test
/// settings.
void runCorpusProgram(const std::string &Name, SymbolTable &Syms,
                      ProfileData &Data) {
  std::string Path = std::string(TL_CORPUS_DIR) + "/" + Name;
  std::string Source = cantFail(readFileText(Path));
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(Source, CG);
  Monitor Mon(Img.lowPc(), Img.highPc());
  VMOptions VO;
  VO.CyclesPerTick = 997;
  VM Machine(Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  Data = cantFail(readGmon(writeGmon(Mon.finish())));
  Syms = SymbolTable::fromImage(Img);
}

/// Analyzes \p Data with spans off and then on, and expects the full
/// counter snapshot to be populated and identical both times — the timing
/// machinery must not perturb the counts.
void expectCountersDeterministic(const SymbolTable &Syms,
                                 const ProfileData &Data) {
  std::map<std::string, uint64_t> Reference;
  for (bool Spans : {false, true}) {
    freshRegistry();
    Registry::instance().enableSpans(Spans);
    cantFail(Analyzer(Syms).analyze(Data));
    Registry::instance().enableSpans(false);
    std::map<std::string, uint64_t> Snap = counterSnapshot();
    EXPECT_GT(Snap.at("analyzer.runs"), 0u);
    EXPECT_GT(Snap.at("analyzer.symbolize.raw_records"), 0u);
    // The phase-latency histograms recorded during the same run live in
    // their own namespace: populated, but invisible to the counter
    // snapshot.
    uint64_t PhaseLatencies = 0;
    for (const telemetry::DurationHistogram *H :
         Registry::instance().histograms())
      if (H->name().rfind("analyzer.phase.latency.", 0) == 0)
        PhaseLatencies += H->snapshot().count();
    EXPECT_GT(PhaseLatencies, 0u);
    EXPECT_EQ(Snap.count("analyzer.phase.latency.propagate"), 0u);
    if (!Spans)
      Reference = std::move(Snap);
    else
      EXPECT_EQ(Snap, Reference) << "counters diverged with spans on";
  }
  ASSERT_FALSE(Reference.empty());
}

TEST(TelemetryDeterminismTest, AnalyzerCountersPrimes) {
  SymbolTable Syms;
  ProfileData Data;
  runCorpusProgram("primes.tl", Syms, Data);
  expectCountersDeterministic(Syms, Data);
}

TEST(TelemetryDeterminismTest, AnalyzerCountersCalculatorWithCycle) {
  SymbolTable Syms;
  ProfileData Data;
  runCorpusProgram("calculator.tl", Syms, Data);
  expectCountersDeterministic(Syms, Data);
}

} // namespace
