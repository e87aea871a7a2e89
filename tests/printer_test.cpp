//===- tests/printer_test.cpp - Output-format tests for the listings ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the row-level format of the flat and call graph listings: exact
/// column contents for known profiles, edge cases (empty profiles, zero
/// time, overflow warnings), and the §5 documentation claims about what
/// each listing shows.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "tests/support/SyntheticProfile.h"

#include <gtest/gtest.h>

using namespace gprof;

namespace {

/// Splits text into lines.
std::vector<std::string> lines(const std::string &S) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t End = S.find('\n', Start);
    if (End == std::string::npos) {
      if (Start < S.size())
        Out.push_back(S.substr(Start));
      break;
    }
    Out.push_back(S.substr(Start, End - Start));
    Start = End + 1;
  }
  return Out;
}

/// The first line containing \p Needle, or empty.
std::string lineWith(const std::string &Text, const std::string &Needle) {
  for (const std::string &L : lines(Text))
    if (L.find(Needle) != std::string::npos)
      return L;
  return "";
}

} // namespace

//===----------------------------------------------------------------------===//
// Flat profile format
//===----------------------------------------------------------------------===//

TEST(FlatFormatTest, ColumnsOfAKnownRow) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Leaf = B.addFunction("leaf");
  B.addSpontaneous(Main);
  B.addCall(Main, Leaf, 8);
  B.setSelfSeconds(Leaf, 2.0);  // 250 ms/call self and total.
  B.setSelfSeconds(Main, 2.0);
  ProfileReport R = cantFail(B.analyze());

  std::string Row = lineWith(printFlatProfile(R), "leaf");
  ASSERT_FALSE(Row.empty());
  // " 50.0       2.00      2.00        8   250.00   250.00  leaf"
  EXPECT_NE(Row.find(" 50.0"), std::string::npos) << Row;
  EXPECT_NE(Row.find("2.00"), std::string::npos) << Row;
  EXPECT_NE(Row.find("8"), std::string::npos) << Row;
  EXPECT_NE(Row.find("250.00"), std::string::npos) << Row;
}

TEST(FlatFormatTest, CumulativeColumnAccumulates) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t A = B.addFunction("aaa");
  uint32_t C = B.addFunction("ccc");
  B.addSpontaneous(Main);
  B.addCall(Main, A, 1);
  B.addCall(Main, C, 1);
  B.setSelfSeconds(A, 3.0);
  B.setSelfSeconds(C, 1.0);
  ProfileReport R = cantFail(B.analyze());
  std::string Out = printFlatProfile(R);
  // aaa first (3.00 cumulative 3.00), ccc second (cumulative 4.00).
  EXPECT_NE(lineWith(Out, "aaa").find("3.00"), std::string::npos);
  EXPECT_NE(lineWith(Out, "ccc").find("4.00"), std::string::npos);
  EXPECT_LT(Out.find("aaa"), Out.find("ccc"));
}

TEST(FlatFormatTest, NoCallsMeansBlankCallColumns) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  B.addFunction("sampled_only");
  B.addSpontaneous(Main);
  B.setSelfSeconds(1, 1.0);
  ProfileReport R = cantFail(B.analyze());
  std::string Row = lineWith(printFlatProfile(R), "sampled_only");
  ASSERT_FALSE(Row.empty());
  // The calls and ms/call fields are blank: only two numbers (cumulative
  // and self) appear before the name.
  EXPECT_EQ(Row.find("ms"), std::string::npos);
  int NumberFields = 0;
  bool InField = false;
  for (char C : Row.substr(0, Row.find("sampled_only"))) {
    if (!isspace(static_cast<unsigned char>(C))) {
      if (!InField)
        ++NumberFields;
      InField = true;
    } else {
      InField = false;
    }
  }
  EXPECT_EQ(NumberFields, 3) << Row; // %time, cumulative, self.
}

TEST(FlatFormatTest, OverflowWarningShown) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  B.addSpontaneous(Main);
  auto In = B.build();
  In.Data.ArcTableOverflowed = true;
  Analyzer A(std::move(In.Syms));
  ProfileReport R = cantFail(A.analyze(In.Data));
  std::string Out = printFlatProfile(R);
  EXPECT_NE(Out.find("arc table overflowed"), std::string::npos);
  // The call graph listing leads with the same warning: its call counts
  // are the numbers the overflow made lower bounds.
  std::string Graph = printCallGraph(R);
  EXPECT_NE(Graph.find("arc table overflowed"), std::string::npos);
  EXPECT_LT(Graph.find("arc table overflowed"),
            Graph.find("call graph profile"));
}

TEST(FlatFormatTest, UnattributedTimeNoted) {
  SymbolTable Syms;
  Syms.addSymbol("only", 100, 10);
  cantFail(Syms.finalize());
  ProfileData Data;
  Data.TicksPerSecond = 10;
  Histogram H(0, 1000, 1);
  for (int I = 0; I != 20; ++I)
    H.recordPc(500);
  Data.Hist = std::move(H);
  Analyzer A(std::move(Syms));
  ProfileReport R = cantFail(A.analyze(Data));
  std::string Out = printFlatProfile(R);
  EXPECT_NE(Out.find("2.00 seconds sampled outside"), std::string::npos);
}

TEST(FlatFormatTest, BriefSuppressesBlurb) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  B.addSpontaneous(Main);
  ProfileReport R = cantFail(B.analyze());
  FlatPrintOptions Opts;
  Opts.Brief = true;
  std::string Out = printFlatProfile(R, Opts);
  EXPECT_EQ(Out.find("Each sample counts"), std::string::npos);
  EXPECT_NE(Out.find("cumulative"), std::string::npos);
}

TEST(FlatFormatTest, EmptyProfilePrintsHeaderOnly) {
  SymbolTable Syms;
  cantFail(Syms.finalize());
  ProfileData Data;
  Analyzer A(std::move(Syms));
  ProfileReport R = cantFail(A.analyze(Data));
  std::string Out = printFlatProfile(R);
  EXPECT_NE(Out.find("cumulative"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Call graph listing format
//===----------------------------------------------------------------------===//

namespace {

/// A three-level profile with known numbers for row checks.
ProfileReport threeLevel() {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Mid = B.addFunction("mid");
  uint32_t Leaf = B.addFunction("leaf");
  B.addSpontaneous(Main);
  B.addCall(Main, Mid, 2);
  B.addCall(Mid, Leaf, 10);
  B.setSelfSeconds(Main, 1.0);
  B.setSelfSeconds(Mid, 1.0);
  B.setSelfSeconds(Leaf, 2.0);
  return cantFail(B.analyze());
}

} // namespace

TEST(GraphFormatTest, PrimaryLineContents) {
  ProfileReport R = threeLevel();
  std::string Out = printCallGraph(R);
  // main: 100% of 4.0s, self 1.00, desc 3.00, called 1.
  std::string Primary = lineWith(Out, "main [");
  ASSERT_FALSE(Primary.empty());
  EXPECT_NE(Primary.find("100.0"), std::string::npos) << Primary;
  EXPECT_NE(Primary.find("1.00"), std::string::npos) << Primary;
  EXPECT_NE(Primary.find("3.00"), std::string::npos) << Primary;
}

TEST(GraphFormatTest, ParentRowShowsPropagatedShares) {
  ProfileReport R = threeLevel();
  // leaf's entry: parent row for mid shows 2.00 self / 0.00 desc, 10/10.
  std::string Entry = printCallGraphEntry(R, "leaf");
  std::string ParentRow = lineWith(Entry, "mid [");
  ASSERT_FALSE(ParentRow.empty());
  EXPECT_NE(ParentRow.find("2.00"), std::string::npos) << ParentRow;
  EXPECT_NE(ParentRow.find("10/10"), std::string::npos) << ParentRow;
}

TEST(GraphFormatTest, EntriesSeparatedAndOrdered) {
  ProfileReport R = threeLevel();
  std::string Out = printCallGraph(R);
  // Order by total time: main (4.0) then mid (3.0) then leaf (2.0).
  size_t MainPos = Out.find("main [1]");
  size_t MidPos = Out.find("mid [2]");
  size_t LeafPos = Out.find("leaf [3]");
  EXPECT_NE(MainPos, std::string::npos);
  EXPECT_NE(MidPos, std::string::npos);
  EXPECT_NE(LeafPos, std::string::npos);
  EXPECT_LT(MainPos, MidPos);
  EXPECT_LT(MidPos, LeafPos);
  // Separators between entries.
  size_t Count = 0;
  for (const std::string &L : lines(Out))
    if (L.rfind("-----", 0) == 0)
      ++Count;
  EXPECT_GE(Count, 4u); // Header + one per entry.
}

TEST(GraphFormatTest, IndexTableAlphabetical) {
  ProfileReport R = threeLevel();
  std::string Out = printCallGraph(R);
  size_t TablePos = Out.find("index by function name");
  ASSERT_NE(TablePos, std::string::npos);
  std::string Table = Out.substr(TablePos);
  EXPECT_LT(Table.find("leaf"), Table.find("main"));
  EXPECT_LT(Table.find("main"), Table.find("mid"));
}

TEST(GraphFormatTest, StaticChildRowShowsZeroCount) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Cold = B.addFunction("cold");
  uint32_t Other = B.addFunction("other");
  B.addSpontaneous(Main);
  B.addStaticArc(Main, Cold);
  B.addCall(Other, Cold, 5);
  B.addSpontaneous(Other);
  B.setSelfSeconds(Cold, 1.0);
  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  ProfileReport R = cantFail(B.analyze(Opts));
  std::string Entry = printCallGraphEntry(R, "main");
  std::string Row = lineWith(Entry, "cold [");
  ASSERT_FALSE(Row.empty());
  EXPECT_NE(Row.find("0/5"), std::string::npos) << Row;
  EXPECT_NE(Row.find("0.00"), std::string::npos) << Row;
}

TEST(GraphFormatTest, NeverCalledEntryAnnotated) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Ghost = B.addFunction("ghost");
  B.addSpontaneous(Main);
  B.addStaticArc(Main, Ghost);
  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  ProfileReport R = cantFail(B.analyze(Opts));
  std::string Entry = printCallGraphEntry(R, "ghost");
  // ghost has a parent row (the static arc), so no <never called>, but a
  // 0-calls primary line.
  EXPECT_NE(Entry.find("main"), std::string::npos);
  std::string Primary = lineWith(Entry, "ghost [");
  EXPECT_NE(Primary.find(" 0 "), std::string::npos) << Primary;
}

TEST(GraphFormatTest, SelfRecursionPlusNotation) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t Rec = B.addFunction("rec");
  B.addSpontaneous(Main);
  B.addCall(Main, Rec, 3);
  B.addCall(Rec, Rec, 7);
  ProfileReport R = cantFail(B.analyze());
  std::string Primary = lineWith(printCallGraphEntry(R, "rec"), "rec [");
  EXPECT_NE(Primary.find("3+7"), std::string::npos) << Primary;
}

TEST(GraphFormatTest, CycleMembersListedInsideCycleEntry) {
  SyntheticProfileBuilder B(100);
  uint32_t Main = B.addFunction("main");
  uint32_t X = B.addFunction("xx");
  uint32_t Y = B.addFunction("yy");
  B.addSpontaneous(Main);
  B.addCall(Main, X, 5);
  B.addCall(X, Y, 20);
  B.addCall(Y, X, 19);
  B.setSelfSeconds(X, 1.0);
  B.setSelfSeconds(Y, 2.0);
  ProfileReport R = cantFail(B.analyze());
  std::string Out = printCallGraph(R);

  size_t CyclePos = Out.find("<cycle 1 as a whole>");
  ASSERT_NE(CyclePos, std::string::npos);
  // Members appear (with their intra-cycle call counts) after the cycle's
  // primary line and before the next separator.
  std::string CycleBlock = Out.substr(CyclePos, Out.find("-----", CyclePos) -
                                                    CyclePos);
  EXPECT_NE(CycleBlock.find("xx <cycle1>"), std::string::npos);
  EXPECT_NE(CycleBlock.find("yy <cycle1>"), std::string::npos);
  // Cycle primary shows 5 external + 39 internal.
  EXPECT_NE(Out.find("5+39"), std::string::npos);
}

TEST(GraphFormatTest, SpontaneousRowPlacement) {
  ProfileReport R = threeLevel();
  std::string Entry = printCallGraphEntry(R, "main");
  auto Ls = lines(Entry);
  // The <spontaneous> row precedes the primary line.
  size_t SpontLine = ~0u, PrimaryLine = ~0u;
  for (size_t I = 0; I != Ls.size(); ++I) {
    if (Ls[I].find("<spontaneous>") != std::string::npos)
      SpontLine = I;
    if (Ls[I].find("main [1]") != std::string::npos && Ls[I][0] == '[')
      PrimaryLine = I;
  }
  ASSERT_NE(SpontLine, ~0u);
  ASSERT_NE(PrimaryLine, ~0u);
  EXPECT_LT(SpontLine, PrimaryLine);
}
