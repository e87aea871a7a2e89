//===- tests/golden_test.cpp - Byte-exact golden output regression --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole pipeline is deterministic, so entire listings can be pinned
/// byte-for-byte: any unintended change to sampling, propagation, sorting
/// or formatting shows up as a golden diff.  Regenerate the expectations
/// with:
///
///   GOLDEN_UPDATE=1 ./build/tests/golden_test
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Annotate.h"
#include "core/ContextTree.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "prof/ProfBaseline.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "tests/support/SyntheticProfile.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace gprof;

namespace {

struct Pipeline {
  Image Img;
  std::string Source;
  ProfileData Data;
  ProfileReport Report;
};

/// Compiles and profiles one corpus program under fixed settings.
Pipeline runCorpusProgram(const std::string &Name) {
  std::string Path = std::string(TL_CORPUS_DIR) + "/" + Name;
  std::string Source = cantFail(readFileText(Path));
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Pipeline P{compileTLOrDie(Source, CG), Source, {}, {}};
  Monitor Mon(P.Img.lowPc(), P.Img.highPc());
  VMOptions VO;
  VO.CyclesPerTick = 997;
  VM Machine(P.Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  P.Data = cantFail(readGmon(writeGmon(Mon.finish())));
  P.Report = cantFail(analyzeImageProfile(P.Img, P.Data));
  return P;
}

/// Compares \p Actual against the golden file, or rewrites it when
/// GOLDEN_UPDATE is set.
void checkGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(GOLDEN_DIR) + "/" + Name;
  if (std::getenv("GOLDEN_UPDATE")) {
    cantFail(writeFileText(Path, Actual));
    SUCCEED() << "updated " << Path;
    return;
  }
  auto Expected = readFileText(Path);
  ASSERT_TRUE(static_cast<bool>(Expected))
      << "missing golden file " << Path
      << " — run GOLDEN_UPDATE=1 ./build/tests/golden_test";
  EXPECT_EQ(Actual, *Expected) << "golden mismatch for " << Name;
}

} // namespace

TEST(GoldenTest, PrimesFlatProfile) {
  Pipeline P = runCorpusProgram("primes.tl");
  checkGolden("primes_flat.txt", printFlatProfile(P.Report));
}

TEST(GoldenTest, PrimesCallGraph) {
  Pipeline P = runCorpusProgram("primes.tl");
  checkGolden("primes_graph.txt", printCallGraph(P.Report));
}

TEST(GoldenTest, PrimesProfBaseline) {
  Pipeline P = runCorpusProgram("primes.tl");
  ProfReport Prof = analyzeProf(SymbolTable::fromImage(P.Img), P.Data);
  checkGolden("primes_prof.txt", printProf(Prof));
}

TEST(GoldenTest, PrimesAnnotatedSource) {
  Pipeline P = runCorpusProgram("primes.tl");
  checkGolden("primes_annotate.txt",
              printAnnotatedSource(annotateSource(P.Img, P.Source, P.Data)));
}

TEST(GoldenTest, CalculatorCallGraphWithCycle) {
  // calculator.tl's mutually recursive evaluator exercises the cycle
  // entry format.
  Pipeline P = runCorpusProgram("calculator.tl");
  checkGolden("calculator_graph.txt", printCallGraph(P.Report));
}

namespace {

/// Like runCorpusProgram, but with context-tree recording on.
Pipeline runCorpusProgramWithContexts(const std::string &Name) {
  std::string Path = std::string(TL_CORPUS_DIR) + "/" + Name;
  std::string Source = cantFail(readFileText(Path));
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Pipeline P{compileTLOrDie(Source, CG), Source, {}, {}};
  MonitorOptions MO;
  MO.RecordContexts = true;
  Monitor Mon(P.Img.lowPc(), P.Img.highPc(), MO);
  VMOptions VO;
  VO.CyclesPerTick = 997;
  VM Machine(P.Img, VO);
  Machine.setHooks(&Mon);
  cantFail(Machine.run());
  P.Data = cantFail(readGmon(writeGmon(Mon.finish())));
  P.Report = cantFail(analyzeImageProfile(P.Img, P.Data));
  return P;
}

} // namespace

TEST(GoldenTest, ContextsListing) {
  // The gprof --contexts listing for the context-dependent-cost corpus
  // program, pinned byte-exact.
  Pipeline P = runCorpusProgramWithContexts("contexts.tl");
  SymbolTable Syms = SymbolTable::fromImage(P.Img);
  ContextTree Tree = cantFail(ContextTree::build(P.Data, Syms));
  checkGolden("contexts_listing.txt", printContexts(Tree));
}

TEST(GoldenTest, ContextsPropagationError) {
  // The --prop-error table over the same run: cheap_user/costly_user
  // carry the paper-§6 misattribution this program is built to force;
  // a golden diff here means the propagation or the exact side moved.
  Pipeline P = runCorpusProgramWithContexts("contexts.tl");
  SymbolTable Syms = SymbolTable::fromImage(P.Img);
  ContextTree Tree = cantFail(ContextTree::build(P.Data, Syms));
  checkGolden("contexts_properr.txt",
              printPropagationError(propagationError(P.Report, Tree)));
}

namespace {

/// A hand-built profile that reaches every branch of the call graph
/// printer: two multi-member cycles (the first entered from several
/// outside parents and spontaneously, the second from a cycle member),
/// parent and child rows tied on both propagated time and count (more of
/// them than an insertion sort handles, so the order the sorts see
/// matters), static arcs, self recursion inside and outside a cycle,
/// spontaneous activations and a routine that is never called.
ProfileReport analyzeListingStressProfile() {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t A1 = B.addFunction("a1");
  uint32_t A2 = B.addFunction("a2");
  uint32_t A3 = B.addFunction("a3");
  uint32_t B1 = B.addFunction("b1");
  uint32_t B2 = B.addFunction("b2");
  uint32_t X = B.addFunction("x");
  uint32_t Y = B.addFunction("y");
  uint32_t Z = B.addFunction("z");
  uint32_t Shared = B.addFunction("shared");
  uint32_t Leaf = B.addFunction("leaf");
  uint32_t Rec = B.addFunction("rec");
  uint32_t Handler = B.addFunction("handler");
  uint32_t Lonely = B.addFunction("lonely");
  std::vector<uint32_t> Fans;
  for (unsigned I = 0; I != 20; ++I)
    Fans.push_back(B.addFunction(format("fan%02u", I)));

  B.addSpontaneous(Main);
  // Cycle 1: a1 -> a2 -> a3 -> a1, entered from main, x, y and z, and
  // spontaneously; a3 also recurses on itself.
  B.addCall(A1, A2, 3);
  B.addCall(A2, A3, 4);
  B.addCall(A3, A1, 5);
  B.addCall(A3, A3, 2);
  B.addCall(Main, A1, 2);
  B.addCall(X, A2, 2);
  B.addCall(Y, A3, 2);
  B.addCall(Z, A1, 2);
  B.addSpontaneous(A2, 1);
  // Cycle 2: b1 <-> b2, entered from a cycle-1 member and from main.
  B.addCall(B1, B2, 7);
  B.addCall(B2, B1, 6);
  B.addCall(A3, B1, 1);
  B.addCall(Main, B2, 1);
  B.addCall(B2, Leaf, 4);
  // x, y and z are alike, so main's rows for them tie on time and count.
  for (uint32_t P : {X, Y, Z}) {
    B.addCall(Main, P, 1);
    B.addCall(P, Leaf, 1);
    B.setSelfSeconds(P, 0.25);
  }
  // Twenty identical fan routines: main's children and shared's parents
  // tie on both keys.
  for (uint32_t F : Fans) {
    B.addCall(Main, F, 1);
    B.addCall(F, Shared, 1);
    B.setSelfSeconds(F, 0.05);
  }
  B.addCall(Main, Rec, 1);
  B.addCall(Rec, Rec, 9);
  B.addCall(Main, Handler, 2);
  B.addSpontaneous(Handler, 3);
  B.addStaticArc(Main, Lonely);
  B.addStaticArc(Handler, Leaf);
  B.addStaticArc(Leaf, Shared);

  B.setSelfSeconds(Main, 0.5);
  B.setSelfSeconds(A1, 0.3);
  B.setSelfSeconds(A2, 0.2);
  B.setSelfSeconds(A3, 0.1);
  B.setSelfSeconds(B1, 0.4);
  B.setSelfSeconds(B2, 0.15);
  B.setSelfSeconds(Shared, 1.0);
  B.setSelfSeconds(Leaf, 0.6);
  B.setSelfSeconds(Rec, 0.35);
  B.setSelfSeconds(Handler, 0.05);

  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  return cantFail(B.analyze(Opts));
}

} // namespace

TEST(GoldenTest, SyntheticCallGraphWithIndex) {
  ProfileReport R = analyzeListingStressProfile();
  ASSERT_EQ(R.Cycles.size(), 2u);
  checkGolden("synthetic_graph.txt", printCallGraph(R)); // with the index
}

TEST(GoldenTest, SyntheticCycleMemberEntry) {
  ProfileReport R = analyzeListingStressProfile();
  checkGolden("synthetic_member_entry.txt", printCallGraphEntry(R, "a2"));
}

TEST(GoldenTest, ContextsTiedRowsKeepPreorder) {
  // "work" runs in seven contexts, several with equal inclusive ticks;
  // equal rows must list in preorder.  Rendered twice: with the default
  // top five (the rest summarized) and with every context shown.
  SymbolTable Syms;
  const char *Names[] = {"main", "p", "q", "r", "work"};
  for (unsigned I = 0; I != 5; ++I)
    Syms.addSymbol(Names[I], 0x1000 + I * 0x100, 0x100);
  cantFail(Syms.finalize());
  auto Entry = [](unsigned Fn) -> Address { return 0x1000 + Fn * 0x100; };
  auto Site = [](unsigned Fn, unsigned K) -> Address {
    return 0x1000 + Fn * 0x100 + 8 + K;
  };
  enum { Main, P, Q, R, Work };

  ProfileData Data;
  Data.TicksPerSecond = 100;
  auto Add = [&](uint32_t Parent, unsigned From, unsigned To, uint64_t Calls,
                 uint64_t Ticks, unsigned K = 0) {
    CctNode N;
    N.Parent = Parent;
    N.FromPc = Parent == CctRootParent ? 0 : Site(From, K);
    N.SelfPc = Entry(To);
    N.Calls = Calls;
    N.Ticks = Ticks;
    Data.Contexts.push_back(N);
    return static_cast<uint32_t>(Data.Contexts.size() - 1);
  };
  uint32_t M = Add(CctRootParent, 0, Main, 1, 1);
  uint32_t Pn = Add(M, Main, P, 2, 0);
  Add(Pn, P, Work, 2, 2);
  uint32_t Qn = Add(M, Main, Q, 1, 1);
  Add(Qn, Q, Work, 3, 3);
  uint32_t Rn = Add(Qn, Q, R, 1, 0);
  Add(Rn, R, Work, 1, 2);
  Add(M, Main, Work, 4, 2);
  uint32_t Pn2 = Add(M, Main, P, 1, 1);
  Add(Pn2, P, Work, 5, 3);
  uint32_t Rn2 = Add(M, Main, R, 1, 0);
  Add(Rn2, R, Work, 6, 2);
  Add(Rn2, R, Work, 7, 2, /*K=*/1);

  ContextTree Tree = cantFail(ContextTree::build(Data, Syms));
  ContextPrintOptions All;
  All.TopContexts = 10;
  checkGolden("contexts_tied.txt",
              printContexts(Tree) + "\n" + printContexts(Tree, All));
}

namespace {

/// A flat profile that reaches every field of the flat printer: routines
/// tied on self time and calls, a call count wider than its column,
/// ms/call values that sit exactly on rounding ties (eight samples per
/// second make every time a multiple of 1/8), a never-called routine,
/// samples outside every routine and time excluded with -E.
ProfileReport analyzeFlatStressProfile() {
  SyntheticProfileBuilder B(8);
  uint32_t Main = B.addFunction("main");
  uint32_t TieA = B.addFunction("tie_a");
  uint32_t TieB = B.addFunction("tie_b");
  uint32_t TieC = B.addFunction("tie_c");
  uint32_t Wide = B.addFunction("wide");
  uint32_t Half1 = B.addFunction("half1");
  uint32_t Half3 = B.addFunction("half3");
  uint32_t Half5 = B.addFunction("half5");
  uint32_t Idle = B.addFunction("idle");
  uint32_t Excluded = B.addFunction("excluded");
  uint32_t Unused = B.addFunction("unused");
  // The last routine is left out of the symbol table below, so its
  // samples fall outside every known routine.
  uint32_t Ghost = B.addFunction("ghost");
  (void)Unused;

  B.addSpontaneous(Main);
  for (uint32_t T : {TieC, TieA, TieB}) {
    B.addCall(Main, T, 7);
    B.setSelfSeconds(T, 0.25);
  }
  B.addCall(Main, Wide, 123456789012ull);
  B.setSelfSeconds(Wide, 0.5);
  // 0.125, 0.375 and 0.625 ms per call: exact binary halfway cases.
  B.addCall(Main, Half1, 1000);
  B.setSelfSeconds(Half1, 0.125);
  B.addCall(Main, Half3, 1000);
  B.setSelfSeconds(Half3, 0.375);
  B.addCall(Main, Half5, 1000);
  B.setSelfSeconds(Half5, 0.625);
  B.addCall(Main, Excluded, 3);
  B.setSelfSeconds(Excluded, 1.0);
  B.setSelfSeconds(Idle, 0.125); // Sampled but never called.
  B.setSelfSeconds(Main, 1.5);
  B.setSelfSeconds(Ghost, 0.375);

  auto In = B.build();
  SymbolTable Syms;
  for (uint32_t I = 0; I != Ghost; ++I)
    Syms.addSymbol(In.Syms.symbol(I).Name, B.entryOf(I), 100);
  cantFail(Syms.finalize());
  AnalyzerOptions Opts;
  Opts.ExcludeTimeOf = {"excluded"};
  Analyzer A(std::move(Syms), std::move(Opts));
  return cantFail(A.analyze(In.Data));
}

/// Two cycles whose lowest-count arcs tie, so which arc the cycle-breaking
/// heuristic removes depends on arc-id order.  Static arcs repeat dynamic
/// ones and each other, so the graph build must merge duplicates.
ProfileReport analyzeCycleBreakingProfile(AnalyzerOptions Opts) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t P1 = B.addFunction("p1");
  uint32_t P2 = B.addFunction("p2");
  uint32_t P3 = B.addFunction("p3");
  uint32_t Q1 = B.addFunction("q1");
  uint32_t Q2 = B.addFunction("q2");
  uint32_t R = B.addFunction("r");
  uint32_t S = B.addFunction("s");

  B.addSpontaneous(Main);
  B.addCall(Main, P1, 10);
  B.addCall(Main, Q1, 4);
  B.addCall(P1, P2, 2);
  B.addCall(P2, P3, 2);
  B.addCall(P2, P1, 2);
  B.addCall(P3, P1, 5);
  B.addCall(P2, P2, 3);
  B.addCall(Q1, Q2, 3);
  B.addCall(Q2, Q1, 3);
  B.addCall(Q2, R, 7);
  B.addCall(Q1, R, 1, /*Site=*/1);
  B.addCall(Q1, R, 2, /*Site=*/2);
  B.addStaticArc(Main, P1);
  B.addStaticArc(P1, S, 0);
  B.addStaticArc(P1, S, 1);
  B.addStaticArc(Q2, Q1);
  B.addStaticArc(R, S);

  B.setSelfSeconds(Main, 0.2);
  B.setSelfSeconds(P1, 0.3);
  B.setSelfSeconds(P2, 0.1);
  B.setSelfSeconds(P3, 0.4);
  B.setSelfSeconds(Q1, 0.25);
  B.setSelfSeconds(Q2, 0.15);
  B.setSelfSeconds(R, 0.5);
  B.setSelfSeconds(S, 0.05);

  Opts.UseStaticArcs = true;
  return cantFail(B.analyze(std::move(Opts)));
}

} // namespace

TEST(GoldenTest, SyntheticFlatProfile) {
  ProfileReport R = analyzeFlatStressProfile();
  ASSERT_GT(R.UnattributedTime, 0.0);
  ASSERT_GT(R.ExcludedTime, 0.0);
  ASSERT_FALSE(R.UnusedFunctions.empty());
  FlatPrintOptions Zero;
  Zero.ShowZeroUsage = true;
  checkGolden("synthetic_flat.txt",
              printFlatProfile(R) + "\n" + printFlatProfile(R, Zero));
}

TEST(GoldenTest, SyntheticCallGraphAutoBreak) {
  AnalyzerOptions Opts;
  Opts.AutoBreakCycleBound = 2;
  ProfileReport R = analyzeCycleBreakingProfile(Opts);
  ASSERT_EQ(R.RemovedArcs.size(), 2u);
  checkGolden("synthetic_break_cycles.txt", printCallGraph(R));
}

TEST(GoldenTest, SyntheticCallGraphDeleteArcs) {
  AnalyzerOptions Opts;
  // q2 -> q1 is also a static arc, so it stays in the graph with count 0.
  Opts.DeleteArcs = {{"q2", "q1"}, {"p3", "p1"}};
  ProfileReport R = analyzeCycleBreakingProfile(Opts);
  checkGolden("synthetic_delete_arcs.txt", printCallGraph(R));
}
