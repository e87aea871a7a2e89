//===- bench/bench_fig4_listing.cpp - E3: regenerate paper Figure 4 -------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 4 is the paper's worked call-graph-profile entry for the routine
/// EXAMPLE: two callers (4/10 and 6/10 of its calls), four self-recursive
/// calls, a child inside cycle 1 receiving 20 of the cycle's 40 external
/// calls, a child SUB2 called once out of 5, and a never-traversed static
/// arc to SUB3.  This bench constructs a profile realizing exactly those
/// counts and times, runs the full analysis pipeline, prints the entry our
/// printer produces, and checks every number the paper publishes:
///
///        self  descendants  called/total   name
///        0.20       1.20        4/10       CALLER1
///        0.30       1.80        6/10       CALLER2
///  41.5  0.50       3.00       10+4        EXAMPLE
///        1.50       1.00       20/40       SUB1 <cycle1>
///        0.00       0.50        1/5        SUB2
///        0.00       0.00        0/5        SUB3
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analyzer.h"
#include "core/GraphPrinter.h"
#include "tests/support/SyntheticProfile.h"

#include <cmath>
#include <cstdio>

using namespace gprof;
using namespace gprof::bench;

namespace {

bool near(double A, double B) { return std::fabs(A - B) < 5e-3; }

const ReportArc *arcOf(const ProfileReport &R, const std::string &P,
                       const std::string &C) {
  uint32_t PI = R.findFunction(P);
  uint32_t CI = R.findFunction(C);
  for (const ReportArc &A : R.Arcs)
    if (A.Parent == PI && A.Child == CI)
      return &A;
  return nullptr;
}

} // namespace

int main() {
  banner("E3 (Figure 4)", "the call graph profile entry for EXAMPLE");

  SyntheticProfileBuilder B(/*TicksPerSecond=*/100);
  uint32_t Caller1 = B.addFunction("CALLER1");
  uint32_t Caller2 = B.addFunction("CALLER2");
  uint32_t Example = B.addFunction("EXAMPLE");
  uint32_t Sub1 = B.addFunction("SUB1");
  uint32_t CycMate = B.addFunction("CYCMATE");
  uint32_t Sub2 = B.addFunction("SUB2");
  uint32_t Sub3 = B.addFunction("SUB3");
  uint32_t Other = B.addFunction("OTHER");
  uint32_t LeafC = B.addFunction("CYCLE_LEAF");
  uint32_t Leaf2 = B.addFunction("SUB2_LEAF");

  // Activations from outside the measured program.
  B.addSpontaneous(Caller1);
  B.addSpontaneous(Caller2);
  B.addSpontaneous(Other);

  // "EXAMPLE is called ten times, four times by CALLER1, and six times by
  // CALLER2 ... EXAMPLE calls itself recursively four times."
  B.addCall(Caller1, Example, 4);
  B.addCall(Caller2, Example, 6);
  B.addCall(Example, Example, 4);

  // "EXAMPLE calls routine SUB1 twenty times"; cycle 1 = {SUB1, CYCMATE}
  // "is called a total of forty times (not counting calls among the
  // members of the cycle)" — the other twenty arrive via OTHER.
  B.addCall(Example, Sub1, 20);
  B.addCall(Other, CycMate, 20);
  B.addCall(Sub1, CycMate, 9); // Intra-cycle traffic, listed only.
  B.addCall(CycMate, Sub1, 8);
  B.addCall(Sub1, LeafC, 10); // The cycle's external descendant.

  // "SUB2 [is called] once ... Since SUB2 is called a total of five
  // times, 20% of its self and descendant time is propagated."
  B.addCall(Example, Sub2, 1);
  B.addCall(Other, Sub2, 4);
  B.addCall(Sub2, Leaf2, 5);

  // "... and never calls SUB3" — the arc is statically apparent only;
  // SUB3's five calls come from elsewhere.
  B.addStaticArc(Example, Sub3);
  B.addCall(Other, Sub3, 5);

  // Self times chosen to reproduce the figure: EXAMPLE 0.50s; cycle self
  // 3.00s; cycle descendants 2.00s; SUB2 self 0, descendants 2.50s; OTHER
  // absorbs 0.43s so that EXAMPLE's share of total time prints as 41.5%.
  B.setSelfSeconds(Example, 0.50);
  B.setSelfSeconds(Sub1, 2.00);
  B.setSelfSeconds(CycMate, 1.00);
  B.setSelfSeconds(LeafC, 2.00);
  B.setSelfSeconds(Leaf2, 2.50);
  B.setSelfSeconds(Other, 0.43);

  AnalyzerOptions Opts;
  Opts.UseStaticArcs = true;
  ProfileReport R = cantFail(B.analyze(Opts));

  std::printf("\nour generated entry for EXAMPLE:\n\n%s\n",
              printCallGraphEntry(R, "EXAMPLE").c_str());

  const FunctionEntry &E = R.Functions[R.findFunction("EXAMPLE")];
  const ReportArc *C1 = arcOf(R, "CALLER1", "EXAMPLE");
  const ReportArc *C2 = arcOf(R, "CALLER2", "EXAMPLE");
  const ReportArc *S1 = arcOf(R, "EXAMPLE", "SUB1");
  const ReportArc *S2 = arcOf(R, "EXAMPLE", "SUB2");
  const ReportArc *S3 = arcOf(R, "EXAMPLE", "SUB3");

  std::printf("paper Figure 4 vs generated values:\n");
  row({"field", "paper", "ours"});
  double Pct = 100.0 * E.totalTime() / R.TotalTime;
  row({"%time", "41.5", formatFixed(Pct, 1)});
  row({"self", "0.50", formatFixed(E.SelfTime, 2)});
  row({"descendants", "3.00", formatFixed(E.ChildTime, 2)});
  row({"called+self", "10+4",
       format("%llu+%llu", (unsigned long long)E.Calls,
              (unsigned long long)E.SelfCalls)});
  row({"CALLER1 row", "0.20 1.20 4/10",
       format("%.2f %.2f %llu/10", C1->PropSelf, C1->PropChild,
              (unsigned long long)C1->Count)});
  row({"CALLER2 row", "0.30 1.80 6/10",
       format("%.2f %.2f %llu/10", C2->PropSelf, C2->PropChild,
              (unsigned long long)C2->Count)});
  row({"SUB1 row", "1.50 1.00 20/40",
       format("%.2f %.2f %llu/40", S1->PropSelf, S1->PropChild,
              (unsigned long long)S1->Count)});
  row({"SUB2 row", "0.00 0.50 1/5",
       format("%.2f %.2f %llu/5", S2->PropSelf, S2->PropChild,
              (unsigned long long)S2->Count)});
  row({"SUB3 row", "0.00 0.00 0/5",
       format("%.2f %.2f %llu/5", S3->PropSelf, S3->PropChild,
              (unsigned long long)S3->Count)});

  std::printf("\nchecks against the paper:\n");
  bool Ok = true;
  Ok &= check(formatFixed(Pct, 1) == "41.5", "%time prints as 41.5");
  Ok &= check(near(E.SelfTime, 0.50) && near(E.ChildTime, 3.00),
              "EXAMPLE: self 0.50, descendants 3.00");
  Ok &= check(E.Calls == 10 && E.SelfCalls == 4, "called+self is 10+4");
  Ok &= check(C1 && near(C1->PropSelf, 0.20) && near(C1->PropChild, 1.20) &&
                  C1->Count == 4,
              "CALLER1 receives 0.20/1.20 via 4/10 calls (40%)");
  Ok &= check(C2 && near(C2->PropSelf, 0.30) && near(C2->PropChild, 1.80) &&
                  C2->Count == 6,
              "CALLER2 receives 0.30/1.80 via 6/10 calls (60%)");
  Ok &= check(S1 && near(S1->PropSelf, 1.50) && near(S1->PropChild, 1.00) &&
                  S1->Count == 20,
              "SUB1 <cycle1> contributes 1.50/1.00 via 20/40 calls "
              "(50% of the whole cycle's time)");
  Ok &= check(R.Cycles.size() == 1 && R.Cycles[0].ExternalCalls == 40,
              "cycle 1 is called a total of forty times");
  Ok &= check(S2 && near(S2->PropSelf, 0.00) && near(S2->PropChild, 0.50),
              "SUB2 contributes 0.00/0.50 via 1/5 calls (20%)");
  Ok &= check(S3 && S3->Static && S3->Count == 0 && S3->PropSelf == 0.0 &&
                  S3->PropChild == 0.0,
              "SUB3's arc is static with count 0/5 and no propagation");
  return Ok ? 0 : 1;
}
