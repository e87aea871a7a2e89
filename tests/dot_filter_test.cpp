//===- tests/dot_filter_test.cpp - DOT export and -E time exclusion -------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/DotExporter.h"
#include "core/FlatPrinter.h"
#include "support/Format.h"
#include "tests/support/SyntheticProfile.h"

#include <gtest/gtest.h>

using namespace gprof;

namespace {

/// main -> {hot, warm}; hot -> helper; a static arc main -> cold; and a
/// self-recursive cycle pair x <-> y under warm.
ProfileReport richReport(AnalyzerOptions Opts = {}) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Hot = B.addFunction("hot");
  uint32_t Warm = B.addFunction("warm");
  uint32_t Helper = B.addFunction("helper");
  uint32_t Cold = B.addFunction("cold");
  uint32_t X = B.addFunction("cx");
  uint32_t Y = B.addFunction("cy");
  B.addSpontaneous(Main);
  B.addCall(Main, Hot, 10);
  B.addCall(Main, Warm, 5);
  B.addCall(Hot, Helper, 100);
  B.addCall(Hot, Hot, 3);
  B.addStaticArc(Main, Cold);
  B.addCall(Warm, X, 2);
  B.addCall(X, Y, 7);
  B.addCall(Y, X, 6);
  B.setSelfSeconds(Hot, 4.0);
  B.setSelfSeconds(Helper, 3.0);
  B.setSelfSeconds(Warm, 1.0);
  B.setSelfSeconds(X, 0.5);
  B.setSelfSeconds(Y, 0.5);
  Opts.UseStaticArcs = true;
  return cantFail(B.analyze(Opts));
}

} // namespace

//===----------------------------------------------------------------------===//
// DOT export
//===----------------------------------------------------------------------===//

TEST(DotExporterTest, StructureOfOutput) {
  std::string Dot = exportDot(richReport());
  EXPECT_EQ(Dot.rfind("digraph callgraph {", 0), 0u);
  EXPECT_EQ(Dot.back(), '\n');
  EXPECT_NE(Dot.find("}\n"), std::string::npos);
  // Every executed routine appears as a node with times in the label.
  for (const char *Name : {"main", "hot", "warm", "helper", "cx", "cy"})
    EXPECT_NE(Dot.find(format("\"%s\" [label=", Name)), std::string::npos)
        << Name;
}

TEST(DotExporterTest, ArcsRendered) {
  std::string Dot = exportDot(richReport());
  EXPECT_NE(Dot.find("\"main\" -> \"hot\""), std::string::npos);
  EXPECT_NE(Dot.find("label=\"100\""), std::string::npos); // hot->helper
  // The static arc is dashed with count 0.
  size_t StaticArc = Dot.find("\"main\" -> \"cold\"");
  ASSERT_NE(StaticArc, std::string::npos);
  EXPECT_NE(Dot.find("style=dashed", StaticArc), std::string::npos);
  // Self-recursion appears as a loop.
  EXPECT_NE(Dot.find("\"hot\" -> \"hot\""), std::string::npos);
}

TEST(DotExporterTest, CycleCluster) {
  std::string Dot = exportDot(richReport());
  size_t Cluster = Dot.find("subgraph cluster_cycle1");
  ASSERT_NE(Cluster, std::string::npos);
  size_t ClusterEnd = Dot.find("}", Cluster);
  std::string Inside = Dot.substr(Cluster, ClusterEnd - Cluster);
  EXPECT_NE(Inside.find("\"cx\""), std::string::npos);
  EXPECT_NE(Inside.find("\"cy\""), std::string::npos);
}

TEST(DotExporterTest, HotFunctionFilter) {
  DotOptions Opts;
  Opts.MinTotalFraction = 0.3; // Keep only routines with >=30% of time.
  std::string Dot = exportDot(richReport(), Opts);
  EXPECT_NE(Dot.find("\"hot\" [label"), std::string::npos);
  EXPECT_NE(Dot.find("\"main\" [label"), std::string::npos);
  // warm's subtree (2.0s of 9.0s ≈ 22%) is filtered out.
  EXPECT_EQ(Dot.find("\"warm\" [label"), std::string::npos);
  EXPECT_EQ(Dot.find("\"cx\""), std::string::npos);
  // Arcs touching filtered nodes vanish with them.
  EXPECT_EQ(Dot.find("-> \"warm\""), std::string::npos);
}

TEST(DotExporterTest, StaticOnlyNodesToggle) {
  DotOptions NoStatic;
  NoStatic.IncludeStatic = false;
  std::string Dot = exportDot(richReport(), NoStatic);
  EXPECT_EQ(Dot.find("\"cold\""), std::string::npos);
  std::string DotWith = exportDot(richReport());
  EXPECT_NE(DotWith.find("\"cold\""), std::string::npos);
}

TEST(DotExporterTest, NamesEscaped) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("we\"ird\\name");
  B.addSpontaneous(Main);
  B.setSelfSeconds(Main, 1.0);
  std::string Dot = exportDot(cantFail(B.analyze()));
  EXPECT_NE(Dot.find("we\\\"ird\\\\name"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// -E time exclusion
//===----------------------------------------------------------------------===//

TEST(ExcludeTimeTest, TimeRemovedEverywhere) {
  AnalyzerOptions Opts;
  Opts.ExcludeTimeOf = {"helper"};
  ProfileReport R = richReport(Opts);

  uint32_t Helper = R.findFunction("helper");
  uint32_t Hot = R.findFunction("hot");
  uint32_t Main = R.findFunction("main");
  // helper keeps its call counts but loses its time.
  EXPECT_EQ(R.Functions[Helper].Calls, 100u);
  EXPECT_EQ(R.Functions[Helper].SelfTime, 0.0);
  EXPECT_NEAR(R.ExcludedTime, 3.0, 1e-9);
  // hot no longer inherits helper's 3 seconds.
  EXPECT_NEAR(R.Functions[Hot].ChildTime, 0.0, 1e-9);
  // The total shrinks accordingly: 9.0 - 3.0.
  EXPECT_NEAR(R.TotalTime, 6.0, 1e-9);
  // main still inherits everything that remains.
  EXPECT_NEAR(R.Functions[Main].totalTime(), 6.0, 1e-9);
}

TEST(ExcludeTimeTest, PercentagesRebased) {
  AnalyzerOptions Opts;
  Opts.ExcludeTimeOf = {"helper"};
  ProfileReport R = richReport(Opts);
  uint32_t Hot = R.findFunction("hot");
  // hot: 4.0 of 6.0 = 66.7% after exclusion (was 4.0+3.0 of 9.0).
  EXPECT_NEAR(R.Functions[Hot].totalTime() / R.TotalTime, 4.0 / 6.0,
              1e-9);
  std::string Flat = printFlatProfile(R);
  EXPECT_NE(Flat.find("excluded from the analysis"), std::string::npos);
}

TEST(ExcludeTimeTest, UnknownNameFails) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  B.addSpontaneous(Main);
  AnalyzerOptions Opts;
  Opts.ExcludeTimeOf = {"ghost"};
  auto R = B.analyze(Opts);
  EXPECT_FALSE(static_cast<bool>(R));
  (void)R.takeError();
}

TEST(ExcludeTimeTest, ExcludingCycleMemberShrinksCycle) {
  AnalyzerOptions Opts;
  Opts.ExcludeTimeOf = {"cx"};
  ProfileReport R = richReport(Opts);
  ASSERT_EQ(R.Cycles.size(), 1u);
  // Cycle self time is cy's 0.5 only.
  EXPECT_NEAR(R.Cycles[0].SelfTime, 0.5, 1e-9);
}
