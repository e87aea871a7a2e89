//===- tests/misc_test.cpp - Remaining edge-case coverage -----------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "gmon/GmonFile.h"
#include "tests/support/SyntheticProfile.h"
#include "vm/CodeGen.h"
#include "vm/Disassembler.h"
#include "vm/StaticCallScanner.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace gprof;

//===----------------------------------------------------------------------===//
// Disassembler operand rendering
//===----------------------------------------------------------------------===//

TEST(MiscDisasmTest, OperandsRendered) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(R"(
    var g = 3;
    fn f(x) { return x; }
    fn main() {
      var h = &f;
      var acc = g;
      while (acc < 5) { acc = acc + h(1); }
      poke(0, acc);
      return peek(0);
    }
  )",
                             CG);
  std::string Listing = disassemble(Img);
  EXPECT_NE(Listing.find("pushfunc   f"), std::string::npos);
  EXPECT_NE(Listing.find("calli      1 args"), std::string::npos);
  EXPECT_NE(Listing.find("loadglobal global 0"), std::string::npos);
  EXPECT_NE(Listing.find("storelocal slot 0"), std::string::npos);
  EXPECT_NE(Listing.find("jz"), std::string::npos);
  EXPECT_NE(Listing.find("memload"), std::string::npos);
  EXPECT_NE(Listing.find("memstore"), std::string::npos);
  // Every line with a pc is within the code segment.
  EXPECT_EQ(Listing.find("<illegal"), std::string::npos);
}

TEST(MiscDisasmTest, SingleInstructionHelper) {
  Image Img = compileTLOrDie("fn main() { return 7; }");
  std::string Line = disassembleInstruction(Img, Img.Functions[0].Addr);
  EXPECT_NE(Line.find("push"), std::string::npos);
  EXPECT_NE(Line.find("7"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Static scanning of profiled images
//===----------------------------------------------------------------------===//

TEST(MiscStaticScanTest, McountProloguesDoNotConfuseTheScan) {
  CodeGenOptions CG;
  CG.EnableProfiling = true;
  Image Img = compileTLOrDie(R"(
    fn a() { return b(); }
    fn b() { return 1; }
    fn main() { return a(); }
  )",
                             CG);
  StaticScanResult Scan = scanStaticCalls(Img);
  ASSERT_EQ(Scan.DirectCalls.size(), 2u);
  for (const StaticArc &A : Scan.DirectCalls)
    EXPECT_NE(Img.findFunctionAt(A.TargetPc), nullptr);
}

//===----------------------------------------------------------------------===//
// Analyzer edge paths
//===----------------------------------------------------------------------===//

TEST(MiscAnalyzerTest, ArcsIntoUnknownCodeSkipped) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  B.addSpontaneous(Main);
  auto In = B.build();
  // An arc whose callee lies outside every symbol: dropped, not crashed.
  In.Data.addArc(In.Syms.symbol(0).Addr + 5, /*SelfPc=*/0x999999, 7);
  Analyzer A(std::move(In.Syms));
  ProfileReport R = cantFail(A.analyze(In.Data));
  EXPECT_EQ(R.Functions[0].Calls, 1u); // Only the spontaneous one.
}

TEST(MiscAnalyzerTest, DeleteSelfArcZeroesRecursion) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Rec = B.addFunction("rec");
  B.addSpontaneous(Main);
  B.addCall(Main, Rec, 2);
  B.addCall(Rec, Rec, 9);
  AnalyzerOptions Opts;
  Opts.DeleteArcs = {{"rec", "rec"}};
  ProfileReport R = cantFail(B.analyze(Opts));
  uint32_t RecFn = R.findFunction("rec");
  EXPECT_EQ(R.Functions[RecFn].SelfCalls, 0u);
  EXPECT_EQ(R.Functions[RecFn].Calls, 2u);
}

TEST(MiscAnalyzerTest, EmptyProfileDataAnalyzes) {
  SyntheticProfileBuilder B(100);
  B.addFunction("main");
  auto In = B.build();
  ProfileData Empty;
  Analyzer A(std::move(In.Syms));
  ProfileReport R = cantFail(A.analyze(Empty));
  EXPECT_EQ(R.TotalTime, 0.0);
  EXPECT_EQ(R.UnusedFunctions.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Gmon boundary conditions
//===----------------------------------------------------------------------===//

TEST(MiscGmonTest, ZeroHzRejected) {
  ProfileData D;
  auto Bytes = writeGmon(D);
  // Patch hz (offset 8..16) to zero.
  for (int I = 8; I != 16; ++I)
    Bytes[I] = 0;
  auto R = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(R));
  (void)R.takeError();
}

TEST(MiscGmonTest, ZeroRunsRejected) {
  ProfileData D;
  auto Bytes = writeGmon(D);
  // Patch runs (offset 16..20) to zero.
  for (int I = 16; I != 20; ++I)
    Bytes[I] = 0;
  auto R = readGmon(Bytes);
  EXPECT_FALSE(static_cast<bool>(R));
  (void)R.takeError();
}

//===----------------------------------------------------------------------===//
// VM::call interplay with data memory
//===----------------------------------------------------------------------===//

TEST(MiscVMTest, MemoryPersistsAcrossCalls) {
  Image Img = compileTLOrDie(R"(
    fn store(i, v) { return poke(i, v); }
    fn load(i) { return peek(i); }
    fn main() { return 0; }
  )");
  VM Machine(Img);
  cantFail(Machine.call("store", {3, 99}));
  EXPECT_EQ(cantFail(Machine.call("load", {3})).ExitValue, 99);
  Machine.resetMemory();
  EXPECT_EQ(cantFail(Machine.call("load", {3})).ExitValue, 0);
}

TEST(MiscVMTest, ConfigurableMemorySize) {
  Image Img = compileTLOrDie("fn main() { return poke(9, 1); }");
  VMOptions Small;
  Small.MemoryWords = 8;
  VM Machine(Img, Small);
  auto R = Machine.run();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.message().find("out of range"), std::string::npos);
  (void)R.takeError();
}
