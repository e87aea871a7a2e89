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
#include "core/SyntheticProfile.h"
#include "gmon/GmonFile.h"
#include "prof/ProfBaseline.h"
#include "runtime/Monitor.h"
#include "support/FileUtils.h"
#include "support/Format.h"
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

  auto In = B.build();
  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  Analyzer A(std::move(In.Syms), std::move(Opts));
  A.setStaticArcs(In.StaticArcs);
  return cantFail(A.analyze(In.Data));
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
