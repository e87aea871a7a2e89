//===- bench_e2e/ingest.cpp - The ingest workload ------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop against the continuous-profiling daemon.  Set-up captures
/// distinct shards from one generated image (the same program at different
/// clock rates, as `tlrun --cycles-per-tick` would) and renders the report
/// their sum must produce.  Each pass starts an in-process daemon with
/// background compaction on a fresh store.  One closed-loop client, on
/// one connection, pushes every shard once and issues QUERY_REPORT after
/// every few pushes, so reads interleave with writes while compaction
/// folds beside them.  The pass ends when compaction has drained and one
/// last query returned the report of every shard.  One client and two
/// daemon workers stay within a 4-core host.  (Two pushing clients, or a
/// fresh connection per op, made the push median swing by up to 2x
/// between runs on a shared 4-core host, too much for a gate.)
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/Analyzer.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Format.h"
#include "support/Telemetry.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

using namespace gprof;
using namespace gprof::e2e;

namespace {

const char *const ImagePath = "image.tlx";
/// One daemon worker serves the client's connection; the other runs the
/// background compaction beside it.
constexpr unsigned Workers = 2;
/// The client queries after every QueryEvery-th push.
constexpr unsigned QueryEvery = 4;

struct Inputs {
  GeneratedSource Gen;
  std::vector<std::vector<uint8_t>> Shards;
  std::string Expected; ///< In-process merge -> analyze -> print.
};

std::string renderReport(const ProfileReport &Report) {
  // What the daemon answers for QUERY_REPORT with default flags.
  return printFlatProfile(Report, FlatPrintOptions()) + "\n" +
         printCallGraph(Report, GraphPrintOptions());
}

bool setUp(Run &R, Inputs &In, unsigned Rep) {
  const Options &O = R.Opts;
  const unsigned NumShards = O.Size == Scale::Full ? 64 : 12;
  In.Gen = generateIngestImage(O.Seed, O.Size);
  Stopwatch W;
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  DiagnosticEngine Diags;
  auto Img = compileTL(In.Gen.Source, CG, Diags);
  if (!Img) {
    std::fprintf(stderr, "bench_e2e: generated program does not compile: "
                         "%s\n%s",
                 Img.message().c_str(), Diags.renderAll("ingest.tl").c_str());
    return false;
  }
  R.add("lang.compile_ms", W.ms());
  if (Error E = Img->saveToFile(ImagePath)) {
    std::fprintf(stderr, "bench_e2e: %s\n", E.message().c_str());
    return false;
  }

  // Distinct, compatible shards: the same program sampled at different
  // clock rates (hz stays 60, so the shards sum).
  ProfileData Sum;
  for (unsigned K = 0; K != NumShards; ++K) {
    Monitor Mon(Img->lowPc(), Img->highPc());
    VMOptions VO;
    VO.CyclesPerTick = 401 + 13 * uint64_t(K) + (O.Seed % 7);
    VM V(*Img, VO);
    V.setHooks(&Mon);
    auto Res = V.run();
    if (!Res) {
      std::fprintf(stderr, "bench_e2e: %s\n", Res.message().c_str());
      return false;
    }
    ProfileData D = Mon.extract();
    In.Shards.push_back(writeGmon(D));
    if (K == 0)
      Sum = std::move(D);
    else if (Error E = Sum.merge(D)) {
      std::fprintf(stderr, "bench_e2e: %s\n", E.message().c_str());
      return false;
    }
  }
  AnalyzerOptions AO;
  AO.Threads = 1;
  auto Report = analyzeImageProfile(*Img, Sum, AO);
  if (!Report) {
    std::fprintf(stderr, "bench_e2e: %s\n", Report.message().c_str());
    return false;
  }
  In.Expected = renderReport(*Report);
  if (O.Break == "ingest-report")
    In.Expected[In.Expected.size() / 2] ^= 1;

  // Start a daemon and see it answer, as every pass will.
  std::string Root = format("setup-store-%u", Rep);
  auto Server = serve::ServeServer::create(Root, Root + ".sock");
  if (!Server || (*Server)->start()) {
    std::fprintf(stderr, "bench_e2e: daemon failed to start\n");
    return false;
  }
  serve::ServeClient Client((*Server)->socketPath());
  bool Up = !Client.ping();
  (*Server)->stop();
  std::filesystem::remove_all(Root);
  return Up;
}

/// One client operation as seen from the client side.
struct Op {
  bool Query = false;
  bool Ok = false;
  uint64_t BeginNs = 0, EndNs = 0;
  Sha256Digest Digest{};
};

/// Total length of the union of [Begin, End) intervals.
uint64_t unionNs(std::vector<std::pair<uint64_t, uint64_t>> Spans) {
  std::sort(Spans.begin(), Spans.end());
  uint64_t Total = 0, CurB = 0, CurE = 0;
  bool Open = false;
  for (auto [B, E] : Spans) {
    if (Open && B <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Total += CurE - CurB;
    CurB = B, CurE = E, Open = true;
  }
  return Open ? Total + (CurE - CurB) : Total;
}

double histSumMs(const char *Name) {
  return double(telemetry::histogram(Name).snapshot().Sum) / 1e6;
}
uint64_t histCount(const char *Name) {
  return telemetry::histogram(Name).snapshot().count();
}
uint64_t gaugeValue(const char *Name) { return telemetry::gauge(Name).value(); }

void pass(Run &R, const Inputs &In, unsigned Index, bool Traced, bool Record,
          std::vector<double> &Pushes, std::vector<double> &Queries) {
  const Options &O = R.Opts;
  telemetry::Registry &Reg = telemetry::Registry::instance();
  Reg.resetValues();
  Reg.enableSpans(Traced);
  std::map<std::string, double> S;
  bool Ok = true;

  // The client gets one CPU and the daemon's threads the next two, in
  // turn pass by pass.
  pinToCpus(Index + 1, 2);
  std::string Root = format("store-%u", Index);
  std::string Socket = Root + ".sock";
  serve::ServeOptions SO;
  SO.Workers = Workers;
  SO.AcceptPollMs = 20;
  auto Server = serve::ServeServer::create(Root, Socket, SO);
  if (!Server || (*Server)->start()) {
    std::fprintf(stderr, "bench_e2e: daemon failed to start\n");
    Reg.enableSpans(false);
    R.attempt(false);
    return;
  }

  pinToCpus(Index);

  // One closed-loop client on one connection: each op waits for the
  // previous answer.
  serve::ServeClient Client(Socket);
  const size_t N = In.Shards.size();
  std::vector<Op> Ops;
  const uint64_t StartNs = Reg.nowNs();
  for (size_t I = 0; I != N; ++I) {
    Op P;
    P.BeginNs = Reg.nowNs();
    auto Digest = Client.putShard(In.Shards[I]);
    P.EndNs = Reg.nowNs();
    P.Ok = static_cast<bool>(Digest);
    if (P.Ok)
      P.Digest = *Digest;
    else
      std::fprintf(stderr, "bench_e2e: push: %s\n", Digest.message().c_str());
    Ops.push_back(P);
    // No query after the last push: it would see every shard and leave
    // the final query a cache hit.
    if ((I + 1) % QueryEvery != 0 || I + 1 == N)
      continue;
    Op Q;
    Q.Query = true;
    serve::QueryReportRequest Req;
    Req.ImagePath = ImagePath;
    Q.BeginNs = Reg.nowNs();
    auto Text = Client.queryReport(Req);
    Q.EndNs = Reg.nowNs();
    Q.Ok = Text && !Text->empty();
    if (!Text)
      std::fprintf(stderr, "bench_e2e: query: %s\n", Text.message().c_str());
    Ops.push_back(Q);
  }
  uint64_t LastAckNs = Reg.nowNs();

  // Compaction drains in the background; then one cold query over all.
  while ((*Server)->store().compactionPending())
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  uint64_t RunsBefore = gaugeValue("store.merge.runs_used");
  uint64_t MissBefore = gaugeValue("store.merge.cache_misses");
  Op Final;
  Final.Query = true;
  serve::QueryReportRequest Req;
  Req.ImagePath = ImagePath;
  Final.BeginNs = Reg.nowNs();
  auto FinalText = Client.queryReport(Req);
  Final.EndNs = Reg.nowNs();
  Final.Ok = static_cast<bool>(FinalText);
  if (!FinalText)
    std::fprintf(stderr, "bench_e2e: final query: %s\n",
                 FinalText.message().c_str());
  const double PipelineMs = double(Final.EndNs - StartNs) / 1e6;
  uint64_t RunsUsed = gaugeValue("store.merge.runs_used") - RunsBefore;
  uint64_t Misses = gaugeValue("store.merge.cache_misses") - MissBefore;
  Client.disconnect();
  (*Server)->stop();
  Reg.enableSpans(false);

  //--- Oracles. ----------------------------------------------------------
  std::set<Sha256Digest> Acked;
  size_t PushOps = 0, QueryOps = 0;
  double ClientMs = 0;
  std::vector<std::pair<uint64_t, uint64_t>> Busy;
  for (const Op &P : Ops) {
    R.attempt(P.Ok);
    double Ms = double(P.EndNs - P.BeginNs) / 1e6;
    ClientMs += Ms;
    Busy.emplace_back(P.BeginNs, P.EndNs);
    if (P.Query) {
      ++QueryOps;
      if (Record && !Traced && P.Ok)
        Queries.push_back(Ms);
      continue;
    }
    ++PushOps;
    if (P.Ok)
      Acked.insert(P.Digest);
    if (Record && !Traced && P.Ok)
      Pushes.push_back(Ms);
  }
  R.attempt(Final.Ok);
  ClientMs += double(Final.EndNs - Final.BeginNs) / 1e6;
  Busy.emplace_back(Final.BeginNs, Final.EndNs);

  std::vector<ShardInfo> Stored = (*Server)->store().shards();
  std::set<Sha256Digest> StoredSet;
  for (const ShardInfo &I : Stored)
    StoredSet.insert(I.Digest);
  if (O.Break == "ingest-store" && !Acked.empty())
    Acked.erase(Acked.begin());
  Ok &= R.nonEmpty(PushOps == N && N > 0, "every shard was pushed");
  Ok &= R.check(Acked.size() == N, "every push is acknowledged with a "
                                   "distinct digest");
  Ok &= R.check(Stored.size() == N && StoredSet == Acked,
                "every distinct shard is stored exactly once");
  Ok &= R.nonEmpty(Misses > 0 && RunsUsed > 0,
                   "the final query is cold and merges compacted runs");
  Ok &= R.check(FinalText && *FinalText == In.Expected,
                "the final daemon report equals an in-process merge -> "
                "analyze -> print of the same shards");
  R.attempt(Ok);
  std::filesystem::remove_all(Root);
  if (!Record)
    return;

  const double Ops_ = double(PushOps + QueryOps + 1);
  S["pipeline_ms"] = PipelineMs;
  S["ingest_shards_per_s"] = double(N) / (double(LastAckNs - StartNs) / 1e9);
  double PutMs = histSumMs("store.put.latency");
  uint64_t Puts = histCount("store.put.latency");
  double MergeMs = histSumMs("store.merge.latency");
  uint64_t Merges = histCount("store.merge.latency");
  double CompactMs = histSumMs("store.compact.latency");
  double PutHandlerMs = histSumMs("serve.request.latency.put_shard");
  double QueryHandlerMs = histSumMs("serve.request.latency.query_report");
  uint64_t QueryHandled = histCount("serve.request.latency.query_report");
  uint64_t Hits = gaugeValue("store.merge.cache_hits");
  uint64_t AllMisses = gaugeValue("store.merge.cache_misses");
  S["store.put_ms"] = Puts ? PutMs / double(Puts) : 0;
  S["store.put.bytes"] =
      Puts ? double(telemetry::counter("store.put.bytes_written").value()) /
                 double(Puts)
           : 0;
  S["store.compact_busy_ms"] = CompactMs;
  S["store.compact.steps"] = double(gaugeValue("store.compact.steps"));
  S["store.merge_ms"] = Merges ? MergeMs / double(Merges) : 0;
  S["store.merge.runs_used"] =
      Merges ? double(gaugeValue("store.merge.runs_used")) / double(Merges)
             : 0;
  S["store.merge.loose_shards"] =
      Merges ? double(gaugeValue("store.merge.loose_shards")) / double(Merges)
             : 0;
  S["store.merge.cache_hit_ratio"] =
      Hits + AllMisses ? double(Hits) / double(Hits + AllMisses) : 0;
  S["serve.put_handler_ms"] =
      PutHandlerMs / double(std::max<uint64_t>(
                         1, histCount("serve.request.latency.put_shard")));
  S["serve.query_handler_ms"] =
      QueryHandlerMs / double(std::max<uint64_t>(1, QueryHandled));
  S["serve.wire_wait_ms"] = (ClientMs - PutHandlerMs - QueryHandlerMs) / Ops_;
  S["serve.retry_ratio"] = double(gaugeValue("serve.client.retries")) / Ops_;
  S["serve.queue.peak"] = double(gaugeValue("serve.queue.peak"));

  if (Traced) {
    // Layer busy time.  Client ops, handlers and compaction overlap in
    // time, so the layers add up to more than the pass; coverage is the
    // share of the pass during which some named layer was at work.
    std::vector<telemetry::SpanRecord> Spans = Reg.collectSpans();
    double AnalyzeMs = 0;
    for (const telemetry::SpanRecord &Sp : Spans) {
      if (Sp.Name == "analyzer.analyze")
        AnalyzeMs += double(Sp.EndNs - Sp.BeginNs) / 1e6;
      if (Sp.Name == "serve.compaction")
        Busy.emplace_back(std::max(Sp.BeginNs, StartNs),
                          std::max(std::min(Sp.EndNs, Final.EndNs),
                                   std::max(Sp.BeginNs, StartNs)));
    }
    // The query handler's work outside merge and analyze: image load,
    // static scan, symbol table and listing print.
    double ReportMs = std::max(0.0, QueryHandlerMs - MergeMs - AnalyzeMs);
    S["layer.store_ms"] = PutMs + MergeMs + CompactMs;
    S["layer.core_ms"] = AnalyzeMs + ReportMs;
    S["layer.serve_ms"] =
        std::max(0.0, ClientMs - PutMs - MergeMs - AnalyzeMs - ReportMs);
    S["covered_ms"] = double(unionNs(Busy)) / 1e6;
  }
  const std::string Pre = Traced ? "t." : "";
  for (const auto &[Name, Value] : S)
    R.add(Pre + Name, Value);

  R.Properties["routines"] = In.Gen.Routines;
  R.Properties["shards"] = double(N);
  size_t Bytes = 0;
  for (const std::vector<uint8_t> &B : In.Shards)
    Bytes += B.size();
  R.Properties["shard_bytes"] = double(Bytes);
  R.Properties["queries_per_pass"] = double(QueryOps + 1);
  R.Properties["report_bytes"] = double(In.Expected.size());
}

} // namespace

bool e2e::runIngest(Run &R) {
  const Options &O = R.Opts;
  // Set-up, repeated: generate, capture the shards, render the expected
  // report, start a daemon, and one warm-up pass.
  Inputs In;
  std::vector<double> Pushes, Queries;
  unsigned Index = 0;
  for (unsigned I = 0; I != O.SetupReps; ++I) {
    Stopwatch W;
    In = Inputs();
    if (!setUp(R, In, I))
      return false;
    pass(R, In, Index++, /*Traced=*/false, /*Record=*/false, Pushes, Queries);
    R.add("setup_s", W.ms() / 1e3);
  }
  const double End = nowSeconds() + O.Seconds;
  unsigned Passes = 0;
  while (nowSeconds() < End || Passes < (O.Trace ? 6u : 3u)) {
    bool Traced = O.Trace && Passes % 2 == 1;
    pass(R, In, Index++, Traced, /*Record=*/true, Pushes, Queries);
    ++Passes;
    if (R.failed() != 0)
      break;
  }
  for (double V : Pushes)
    R.add("push_ms", V);
  for (double V : Queries)
    R.add("query_ms", V);

  R.setMedian("setup_s", "setup_s");
  R.setMedian("pipeline_s", "pipeline_ms", 1e-3);
  R.setMedian("push_p50_ms", "push_ms");
  R.setMedian("query_p50_ms", "query_ms");
  R.setMedian("ingest_shards_per_s", "ingest_shards_per_s");
  R.setMedian("capture_ms", "push_ms");
  R.setMedian("report_ms", "query_ms");
  R.Values["serve.push_tail_ms"] = tailPercentile(Pushes);
  R.Values["serve.query_tail_ms"] = tailPercentile(Queries);
  return true;
}
