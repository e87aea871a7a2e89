//===- bench_e2e/offline.cpp - The calls, wide and contexts workloads -----===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One offline pass is the paper's whole tool chain, called through each
/// module's public functions and timed from outside:
///
///   VM::run under a Monitor -> Monitor::extract -> writeGmonFile
///   -> Image::loadFromFile -> readGmonFile -> SymbolTable::fromImage
///   -> scanStaticCalls -> Analyzer::analyze -> listing text
///
/// which is what `tlrun --gmon` followed by `gprof` does.  The contexts
/// workload records the calling-context tree and prints what
/// `gprof --contexts --prop-error` prints instead of the flat and graph
/// listings.  Every pass also runs the same program built without
/// profiling, for the overhead ratio and the output oracle.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/Analyzer.h"
#include "core/ContextTree.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "support/Telemetry.h"
#include "vm/CodeGen.h"
#include "vm/StaticCallScanner.h"
#include "vm/VM.h"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace gprof;
using namespace gprof::e2e;

namespace {

const char *const ImagePath = "image.tlx";
const char *const GmonPath = "gmon.out";

struct Subject {
  GeneratedSource Gen;
  Image Profiled;
  Image Bare;
};

/// Generates and compiles the workload's program, and saves the profiled
/// image where the report side loads it from.
bool setUp(Run &R, Subject &P) {
  const Options &O = R.Opts;
  if (O.Workload == "calls")
    P.Gen = generateCalls(O.Seed, O.Size);
  else if (O.Workload == "wide")
    P.Gen = generateWide(O.Seed, O.Size);
  else
    P.Gen = generateContexts(O.Seed, O.Size);

  Stopwatch W;
  for (bool Profiling : {true, false}) {
    CodeGenOptions CG;
    CG.EnableProfiling = Profiling;
    DiagnosticEngine Diags;
    auto Img = compileTL(P.Gen.Source, CG, Diags);
    if (!Img) {
      std::fprintf(stderr,
                   "bench_e2e: generated program does not compile: %s\n%s",
                   Img.message().c_str(),
                   Diags.renderAll(O.Workload + ".tl").c_str());
      return false;
    }
    (Profiling ? P.Profiled : P.Bare) = Img.takeValue();
  }
  R.add("lang.compile_ms", W.ms());
  if (Error E = P.Profiled.saveToFile(ImagePath)) {
    std::fprintf(stderr, "bench_e2e: %s\n", E.message().c_str());
    return false;
  }
  return true;
}

/// Sum of the durations of spans named \p Name, in milliseconds.
double spanMs(const std::vector<telemetry::SpanRecord> &Spans,
              const char *Name) {
  uint64_t Ns = 0;
  for (const telemetry::SpanRecord &S : Spans)
    if (S.Name == Name)
      Ns += S.EndNs - S.BeginNs;
  return double(Ns) / 1e6;
}

/// A profiled execution: the monitor stays alive for extraction.
struct ProfiledRun {
  std::unique_ptr<Monitor> Mon;
  RunResult Result;
  double Ms = 0;
  bool Ok = false;
};

ProfiledRun runProfiled(const Image &Img, const MonitorOptions &MO) {
  ProfiledRun P;
  Stopwatch W;
  P.Mon = std::make_unique<Monitor>(Img.lowPc(), Img.highPc(), MO);
  VM V(Img);
  V.setHooks(P.Mon.get());
  auto Res = V.run();
  P.Ms = W.ms();
  P.Ok = static_cast<bool>(Res);
  if (P.Ok)
    P.Result = Res.takeValue();
  else
    std::fprintf(stderr, "bench_e2e: %s\n", Res.message().c_str());
  return P;
}

bool sameArcs(const std::vector<ArcRecord> &A,
              const std::vector<ArcRecord> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].FromPc != B[I].FromPc || A[I].SelfPc != B[I].SelfPc ||
        A[I].Count != B[I].Count)
      return false;
  return true;
}

/// What the first pass produced; later passes must reproduce it.
struct Reference {
  bool Set = false;
  std::vector<uint8_t> Gmon;
  std::string Text;
};

/// One pass.  A warm-up pass (\p Record false) runs and is checked but
/// adds no samples.
void pass(Run &R, const Subject &P, Reference &Ref, bool Traced,
          bool Record) {
  const Options &O = R.Opts;
  const bool Contexts = O.Workload == "contexts";
  static unsigned Turn = 0;
  pinToCpus(Turn++);
  std::map<std::string, double> S;
  telemetry::Registry &Reg = telemetry::Registry::instance();
  Reg.resetValues();
  Reg.enableSpans(Traced);
  bool Ok = true;
  auto Fail = [&](const std::string &Msg) {
    std::fprintf(stderr, "bench_e2e: %s\n", Msg.c_str());
    Reg.enableSpans(false);
    R.attempt(false);
  };

  // The same program built without profiling: the overhead base and the
  // output oracle.
  Stopwatch W;
  auto Bare = VM(P.Bare).run();
  S["vm.bare_run_ms"] = W.ms();
  if (!Bare)
    return Fail(Bare.message());
  if (O.Break == "bare-output")
    Bare->Printed.push_back(1);

  //--- The pipeline: profiled run -> gmon -> report text. ----------------
  Stopwatch Pipe;
  MonitorOptions MO;
  MO.RecordContexts = Contexts;
  ProfiledRun Prof = runProfiled(P.Profiled, MO);
  if (!Prof.Ok)
    return Fail("profiled run failed");
  S["run.profiled_ms"] = Prof.Ms;
  W = Stopwatch();
  ProfileData Captured = Prof.Mon->extract();
  S["runtime.extract_ms"] = W.lapMs();
  if (Error E = writeGmonFile(GmonPath, Captured))
    return Fail(E.message());
  S["gmon.write_ms"] = W.lapMs();
  S["run_ms"] = Pipe.ms();

  Stopwatch Report;
  W = Stopwatch();
  auto Img = Image::loadFromFile(ImagePath);
  if (!Img)
    return Fail(Img.message());
  S["vm.image_load_ms"] = W.lapMs();
  auto Data = readGmonFile(GmonPath);
  if (!Data)
    return Fail(Data.message());
  S["gmon.read_ms"] = W.lapMs();
  if (O.Break == "empty-arcs")
    Data->Arcs.clear();
  SymbolTable Syms = SymbolTable::fromImage(*Img);
  S["core.symtab_ms"] = W.lapMs();
  StaticScanResult Scan = scanStaticCalls(*Img);
  S["vm.static_scan_ms"] = W.lapMs();
  size_t StaticSites = Scan.DirectCalls.size() + Scan.IndirectCallSites.size();
  AnalyzerOptions AO;
  AO.Threads = 1;
  Analyzer A(std::move(Syms), AO);
  A.setStaticArcs(std::move(Scan.DirectCalls));
  auto Analyzed = A.analyze(*Data);
  if (!Analyzed)
    return Fail(Analyzed.message());
  S["core.analyze_ms"] = W.lapMs();

  std::string Text;
  if (!Contexts) {
    Text = printFlatProfile(*Analyzed, FlatPrintOptions());
    Text += "\n";
    S["core.print_flat_ms"] = W.lapMs();
    Text += printCallGraph(*Analyzed, GraphPrintOptions());
    S["core.print_graph_ms"] = W.lapMs();
  } else {
    // gprof --contexts --prop-error builds its own symbol table for the
    // context tree.
    SymbolTable CtxSyms = SymbolTable::fromImage(*Img);
    S["core.symtab_ms"] += W.lapMs();
    auto Tree = ContextTree::build(*Data, CtxSyms);
    if (!Tree)
      return Fail(Tree.message());
    S["core.context_build_ms"] = W.lapMs();
    Text = printContexts(*Tree, ContextPrintOptions());
    S["core.print_contexts_ms"] = W.lapMs();
    PropagationErrorReport PE = propagationError(*Analyzed, *Tree);
    Text += "\n";
    Text += printPropagationError(PE);
    S["core.prop_error_ms"] = W.lapMs();
  }
  S["report_ms"] = Report.ms();
  S["pipeline_ms"] = Pipe.ms();
  Reg.enableSpans(false);

  S["overhead_ratio"] = S["run.profiled_ms"] / S["vm.bare_run_ms"];
  if (Traced) {
    std::vector<telemetry::SpanRecord> Spans = Reg.collectSpans();
    S["core.symbolize_ms"] = spanMs(Spans, "analyzer.symbolize");
    S["core.assign_ms"] = spanMs(Spans, "analyzer.assign");
    S["core.propagate_ms"] = spanMs(Spans, "analyzer.propagate");
    if (Contexts) {
      // Split the runtime's cost between arc recording and the context
      // tree with one more run that records arcs only.
      MonitorOptions ArcsOnly;
      ProfiledRun NoCct = runProfiled(P.Profiled, ArcsOnly);
      Ok &= R.check(NoCct.Ok, "arcs-only profiled run succeeds");
      S["run.arcs_only_ms"] = NoCct.Ms;
    }
  }

  //--- Oracles. ----------------------------------------------------------
  const RunResult &Res = Prof.Result;
  ArcTableStats Arcs = Prof.Mon->arcTableStats();
  CctStats Cct = Prof.Mon->cctStats();
  uint64_t Ticks = Res.Ticks + (O.Break == "self-time" ? 1 : 0);

  Ok &= R.nonEmpty(!Res.Printed.empty(), "the program printed output");
  Ok &= R.check(Bare->Printed == Res.Printed,
                "bare and profiled runs print identical output");

  auto Bytes = readFileBytes(GmonPath);
  Ok &= R.check(static_cast<bool>(Bytes), "gmon file reads back");
  if (Bytes) {
    Ok &= R.nonEmpty(!Bytes->empty(), "gmon file has bytes");
    if (O.Break == "gmon-repeat" && Ref.Set)
      (*Bytes)[Bytes->size() / 2] ^= 1;
    if (!Ref.Set)
      Ref.Gmon = *Bytes;
    Ok &= R.check(*Bytes == Ref.Gmon,
                  "gmon bytes are identical across passes");
  }

  Ok &= R.nonEmpty(!Data->Arcs.empty(), "arcs > 0");
  Ok &= R.nonEmpty(Ticks > 0 && Data->Hist.totalSamples() > 0,
                   "samples > 0");
  double FlatTotal = 0;
  for (const FunctionEntry &F : Analyzed->Functions)
    FlatTotal += F.SelfTime;
  double Expected = double(Ticks) / double(Data->TicksPerSecond);
  Ok &= R.check(std::fabs(FlatTotal - Expected) <= 1e-9 * (1 + Expected),
                "flat profile self-time total equals ticks / hz");

  if (Contexts) {
    Ok &= R.nonEmpty(!Data->Contexts.empty(), "contexts recorded");
    std::vector<CctNode> Nodes = Data->Contexts;
    if (O.Break == "cct-collapse" && !Nodes.empty())
      Nodes.back().Calls += 1;
    Ok &= R.check(sameArcs(collapseContextsToArcs(Nodes), Data->Arcs),
                  "collapsing the context tree reproduces the arc table");
  }

  Ok &= R.nonEmpty(!Text.empty(), "report text");
  if (!Ref.Set)
    Ref.Text = Text;
  Ok &= R.check(Text == Ref.Text, "report text is identical across passes");
  Ref.Set = true;
  R.attempt(Ok);

  if (!Record)
    return;
  if (Traced) {
    // The per-layer ledger of this pass.  The profiled run splits into
    // the VM's own work (the bare run) and the runtime's (the rest).
    double Bare = std::min(S["vm.bare_run_ms"], S["run.profiled_ms"]);
    double ArcsOnly = Contexts ? S["run.arcs_only_ms"] : S["run.profiled_ms"];
    S["runtime.mcount_ns_per_call"] =
        Arcs.Records ? (ArcsOnly - Bare) * 1e6 / double(Arcs.Records) : 0;
    S["runtime.cct_ns_per_enter"] =
        Cct.Enters ? (S["run.profiled_ms"] - ArcsOnly) * 1e6 /
                         double(Cct.Enters)
                   : 0;
    S["core.analyze.unspanned_ms"] =
        S["core.analyze_ms"] - S["core.symbolize_ms"] - S["core.assign_ms"] -
        S["core.propagate_ms"];
    S["layer.vm_ms"] = Bare + S["vm.image_load_ms"] + S["vm.static_scan_ms"];
    S["layer.runtime_ms"] =
        S["run.profiled_ms"] - Bare + S["runtime.extract_ms"];
    S["layer.gmon_ms"] = S["gmon.write_ms"] + S["gmon.read_ms"];
    S["layer.core_ms"] = S["core.symtab_ms"] + S["core.analyze_ms"] +
                         S["core.print_flat_ms"] + S["core.print_graph_ms"] +
                         S["core.context_build_ms"] +
                         S["core.print_contexts_ms"] + S["core.prop_error_ms"];
    S["covered_ms"] = S["layer.vm_ms"] + S["layer.runtime_ms"] +
                      S["layer.gmon_ms"] + S["layer.core_ms"];
  }
  const std::string Pre = Traced ? "t." : "";
  S["vm.instructions"] = double(Res.Instructions);
  S["vm.calls"] = double(Arcs.Records);
  S["runtime.mcount.probes_per_record"] =
      Arcs.Records ? double(Arcs.ChainProbes) / double(Arcs.Records) : 0;
  S["runtime.mcount.collisions"] = double(Arcs.Collisions);
  S["runtime.cct.probes_per_enter"] =
      Cct.Enters ? double(Cct.ChainProbes) / double(Cct.Enters) : 0;
  S["runtime.cct.nodes"] = double(Cct.Nodes);
  S["gmon.bytes"] = Bytes ? double(Bytes->size()) : 0;
  S["core.report_bytes"] = double(Text.size());
  for (const auto &[Name, Value] : S)
    R.add(Pre + Name, Value);

  R.Properties["routines"] = P.Gen.Routines;
  R.Properties["static_call_sites"] = double(StaticSites);
  R.Properties["calls_executed"] = double(Arcs.Records);
  R.Properties["instructions_executed"] = double(Res.Instructions);
  R.Properties["ticks"] = double(Res.Ticks);
  R.Properties["distinct_arcs"] = double(Data->Arcs.size());
  R.Properties["contexts_recorded"] = double(Data->Contexts.size());
  R.Properties["gmon_bytes"] = Bytes ? double(Bytes->size()) : 0;
  R.Properties["report_bytes"] = double(Text.size());
}

} // namespace

bool e2e::runOffline(Run &R) {
  const Options &O = R.Opts;
  // Set-up, repeated: generate, compile, and one warm-up pass that fills
  // caches and the allocator before anything is timed.
  Subject P;
  Reference Ref;
  for (unsigned I = 0; I != O.SetupReps; ++I) {
    Stopwatch W;
    P = Subject();
    if (!setUp(R, P))
      return false;
    pass(R, P, Ref, /*Traced=*/false, /*Record=*/false);
    R.add("setup_s", W.ms() / 1e3);
  }
  const double End = nowSeconds() + O.Seconds;
  unsigned Passes = 0;
  // At least three recorded passes of each kind, so medians exist.
  while (nowSeconds() < End || Passes < (O.Trace ? 6u : 3u)) {
    bool Traced = O.Trace && Passes % 2 == 1;
    pass(R, P, Ref, Traced, /*Record=*/true);
    ++Passes;
    if (R.failed() != 0)
      break;
  }

  // Contract metrics, from the untraced passes.
  R.setMedian("setup_s", "setup_s");
  R.setMedian("pipeline_s", "pipeline_ms", 1e-3);
  R.setMedian("capture_ms", "run_ms");
  R.setMedian("report_ms", "report_ms");
  // The workload-specific end-to-end figures.
  R.setMedian("run_s", "run_ms", 1e-3);
  R.setMedian("report_s", "report_ms", 1e-3);
  R.setMedian("overhead_ratio", "overhead_ratio");
  return true;
}
