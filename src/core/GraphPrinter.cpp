//===- core/GraphPrinter.cpp -----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/GraphPrinter.h"

#include "core/FlatPrinter.h"
#include "graph/CallGraph.h"
#include "support/Format.h"

#include <algorithm>
#include <charconv>
#include <span>
#include <string_view>

using namespace gprof;

namespace {

constexpr const char *Separator =
    "-----------------------------------------------\n";

/// Positions in Report.Arcs of each routine's in-arcs and out-arcs.  The
/// buckets keep Report.Arcs order: the row sorts below are not stable
/// and rows tie often, so they must see the same sequences a scan of
/// Report.Arcs gives.
struct ArcIndex {
  explicit ArcIndex(const ProfileReport &R)
      : Into(R.Functions.size(), static_cast<uint32_t>(R.Arcs.size()),
             [&](uint32_t I) { return R.Arcs[I].Child; }),
        OutOf(R.Functions.size(), static_cast<uint32_t>(R.Arcs.size()),
              [&](uint32_t I) { return R.Arcs[I].Parent; }) {}
  Buckets Into, OutOf;
};

/// The non-self arcs at \p Positions, in that order.
std::vector<const ReportArc *> rowArcs(const ProfileReport &Report,
                                       std::span<const uint32_t> Positions) {
  std::vector<const ReportArc *> Arcs;
  Arcs.reserve(Positions.size());
  for (uint32_t P : Positions)
    if (!Report.Arcs[P].SelfArc)
      Arcs.push_back(&Report.Arcs[P]);
  return Arcs;
}

/// Row order by propagated time, then count.  Parents list least
/// significant first, so the heaviest parent sits next to the primary
/// line; children list most significant first.
bool lighterRow(const ReportArc *A, const ReportArc *B) {
  double TA = A->PropSelf + A->PropChild;
  double TB = B->PropSelf + B->PropChild;
  if (TA != TB)
    return TA < TB;
  return A->Count < B->Count;
}

/// A "called" column value, "N" or "N<Sep>M", formatted on the stack.
class Called {
public:
  explicit Called(uint64_t N, char Sep = 0, uint64_t M = 0) {
    char *End = std::to_chars(Text, std::end(Text), N).ptr;
    if (Sep != 0) {
      *End++ = Sep;
      End = std::to_chars(End, std::end(Text), M).ptr;
    }
    Size = static_cast<size_t>(End - Text);
  }
  std::string_view text() const { return {Text, Size}; }

private:
  char Text[48];
  size_t Size = 0;
};

/// Appends the self and descendants columns: "%8.2f %11.2f ".
void appendTimes(std::string &Out, double Self, double Desc) {
  appendFixed(Out, Self, 8, 2);
  Out += ' ';
  appendFixed(Out, Desc, 11, 2);
  Out += ' ';
}

/// Appends a parent, child or member row up to and including its name:
/// "%6s %8.2f %11.2f %13s     %s", with the times blank unless \p Timed.
void appendRow(std::string &Out, bool Timed, double Self, double Desc,
               std::string_view Calls, std::string_view Name) {
  Out.append(6 + 1, ' ');
  if (Timed)
    appendTimes(Out, Self, Desc);
  else
    Out.append(8 + 1 + 11 + 1, ' ');
  appendPadLeft(Out, Calls, 13);
  Out += "     ";
  Out += Name;
}

/// Appends " <cycleN> [idx]\n", the tail of every row naming an entry;
/// the cycle tag only when \p CycleNumber is not 0.
void appendRefTail(std::string &Out, uint32_t CycleNumber,
                   uint32_t ListingIndex) {
  if (CycleNumber != 0) {
    Out += " <cycle";
    appendUnsigned(Out, CycleNumber);
    Out += '>';
  }
  Out += " [";
  appendUnsigned(Out, ListingIndex);
  Out += "]\n";
}

/// The row for arc \p A naming routine \p Fn, one of its ends.  \p Total
/// is the callee's total calls.
void appendArcRow(std::string &Out, const ProfileReport &Report,
                  const ReportArc &A, uint32_t Fn, uint64_t Total) {
  const FunctionEntry &F = Report.Functions[Fn];
  // Calls among cycle members are listed but carry no time (§5.2).
  Called C = A.WithinCycle ? Called(A.Count) : Called(A.Count, '/', Total);
  appendRow(Out, !A.WithinCycle, A.PropSelf, A.PropChild, C.text(), F.Name);
  appendRefTail(Out, F.CycleNumber, F.ListingIndex);
}

void appendSpontaneousRow(std::string &Out, uint64_t Count, uint64_t Total) {
  appendRow(Out, /*Timed=*/false, 0.0, 0.0, Called(Count, '/', Total).text(),
            "<spontaneous>\n");
}

/// The primary row of an entry, up to the name.  "+n" counts
/// self-recursive or intra-cycle calls.
void appendPrimaryRow(std::string &Out, const ProfileReport &Report,
                      uint32_t ListingIndex, double Self, double Desc,
                      uint64_t Calls, uint64_t PlusCalls) {
  Out += padRight("[" + std::to_string(ListingIndex) + "]", 6);
  Out += ' ';
  double Percent = Report.TotalTime > 0.0
                       ? 100.0 * (Self + Desc) / Report.TotalTime
                       : 0.0;
  appendFixed(Out, Percent, 5, 1);
  Out += ' ';
  appendTimes(Out, Self, Desc);
  Called C = PlusCalls != 0 ? Called(Calls, '+', PlusCalls) : Called(Calls);
  appendPadLeft(Out, C.text(), 13);
  Out += ' ';
}

void printFunctionEntry(const ProfileReport &Report, const ArcIndex &Index,
                        uint32_t Fn, std::string &Out) {
  const FunctionEntry &F = Report.Functions[Fn];

  std::vector<const ReportArc *> Parents = rowArcs(Report, Index.Into[Fn]);
  std::sort(Parents.begin(), Parents.end(), lighterRow);

  const uint64_t TotalCalls = Report.calleeTotalCalls(Fn);
  if (F.SpontaneousCalls != 0)
    appendSpontaneousRow(Out, F.SpontaneousCalls, TotalCalls);
  else if (Parents.empty() && F.Calls == 0)
    appendRow(Out, /*Timed=*/false, 0.0, 0.0, "", "<never called>\n");
  for (const ReportArc *A : Parents)
    appendArcRow(Out, Report, *A, A->Parent, TotalCalls);

  // Self-recursive calls "do not affect the propagation of time".
  appendPrimaryRow(Out, Report, F.ListingIndex, F.SelfTime, F.ChildTime,
                   F.Calls, F.SelfCalls);
  Out += F.Name;
  appendRefTail(Out, F.CycleNumber, F.ListingIndex);

  std::vector<const ReportArc *> Children = rowArcs(Report, Index.OutOf[Fn]);
  std::sort(Children.begin(), Children.end(),
            [](const ReportArc *A, const ReportArc *B) {
              return lighterRow(B, A);
            });
  for (const ReportArc *A : Children)
    appendArcRow(Out, Report, *A, A->Child, Report.calleeTotalCalls(A->Child));
  Out += Separator;
}

void printCycleEntry(const ProfileReport &Report, const ArcIndex &Index,
                     uint32_t CycleIdx, std::string &Out) {
  const CycleEntry &C = Report.Cycles[CycleIdx];

  // Parents: arcs into any member from outside the cycle, in
  // Report.Arcs order before the row sort.
  std::vector<uint32_t> Positions;
  uint64_t SpontaneousIntoCycle = 0;
  for (uint32_t M : C.Members) {
    SpontaneousIntoCycle += Report.Functions[M].SpontaneousCalls;
    for (uint32_t P : Index.Into[M])
      if (!Report.Arcs[P].WithinCycle)
        Positions.push_back(P);
  }
  std::sort(Positions.begin(), Positions.end());
  std::vector<const ReportArc *> Parents = rowArcs(Report, Positions);
  std::sort(Parents.begin(), Parents.end(), lighterRow);

  if (SpontaneousIntoCycle != 0)
    appendSpontaneousRow(Out, SpontaneousIntoCycle, C.ExternalCalls);
  for (const ReportArc *A : Parents)
    appendArcRow(Out, Report, *A, A->Parent, C.ExternalCalls);

  appendPrimaryRow(Out, Report, C.ListingIndex, C.SelfTime, C.ChildTime,
                   C.ExternalCalls, C.InternalCalls);
  Out += "<cycle ";
  appendUnsigned(Out, C.Number);
  Out += " as a whole>";
  appendRefTail(Out, /*CycleNumber=*/0, C.ListingIndex);

  // "members of the cycle are listed in place of the children", each with
  // the number of calls it received from within the cycle.
  for (uint32_t M : C.Members) {
    uint64_t CallsFromCycle = 0;
    for (uint32_t P : Index.Into[M])
      if (Report.Arcs[P].WithinCycle)
        CallsFromCycle += Report.Arcs[P].Count;
    const FunctionEntry &FM = Report.Functions[M];
    appendRow(Out, /*Timed=*/true, FM.SelfTime, FM.ChildTime,
              Called(CallsFromCycle).text(), FM.Name);
    appendRefTail(Out, FM.CycleNumber, FM.ListingIndex);
  }
  Out += Separator;
}

bool matchesAny(const std::string &Name,
                const std::vector<std::string> &Names) {
  return std::find(Names.begin(), Names.end(), Name) != Names.end();
}

std::string listingHeader(bool Brief) {
  std::string Out;
  if (!Brief)
    Out += "call graph profile:\n"
           "  Each entry shows a routine, its parents (above) and its\n"
           "  children (below).  'self' and 'descendants' on an arc row\n"
           "  are the portions of the child's time propagated along that\n"
           "  arc; 'called/total' is the arc count over the callee's total\n"
           "  calls; '+n' counts self-recursive or intra-cycle calls,\n"
           "  which never propagate time.\n\n";
  Out += "                                    called/total      parents\n";
  Out += "index  %time    self descendants    called+self   name     index\n";
  Out += "                                    called/total      children\n";
  Out += Separator;
  return Out;
}

} // namespace

std::string gprof::printCallGraph(const ProfileReport &Report,
                                  const GraphPrintOptions &Opts) {
  std::string Out;
  // Overflow must be announced here, not only in the flat profile: with
  // --graph-only this is the whole listing, and silently low call counts
  // corrupt every propagated-time fraction below.
  if (Report.ArcTableOverflowed)
    Out += "warning: the arc table overflowed during collection; call "
           "counts are lower bounds\n\n";
  Out += listingHeader(Opts.Brief);

  const ArcIndex Index(Report);
  for (const ListingEntry &E : Report.GraphOrder) {
    if (E.IsCycle) {
      const CycleEntry &C = Report.Cycles[E.Index];
      if (!Opts.OnlyFunctions.empty()) {
        bool AnyMember = false;
        for (uint32_t M : C.Members)
          AnyMember |= matchesAny(Report.Functions[M].Name,
                                  Opts.OnlyFunctions);
        if (!AnyMember)
          continue;
      }
      printCycleEntry(Report, Index, E.Index, Out);
      continue;
    }
    const std::string &Name = Report.Functions[E.Index].Name;
    if (!Opts.OnlyFunctions.empty() &&
        !matchesAny(Name, Opts.OnlyFunctions))
      continue;
    if (matchesAny(Name, Opts.ExcludeFunctions))
      continue;
    printFunctionEntry(Report, Index, E.Index, Out);
  }

  if (Opts.PrintIndex) {
    // Alphabetical cross-reference, "to help us navigate the output".
    Out += "\nindex by function name:\n";
    std::vector<uint32_t> ByName;
    for (uint32_t I = 0; I != Report.Functions.size(); ++I)
      if (Report.Functions[I].ListingIndex != 0)
        ByName.push_back(I);
    std::sort(ByName.begin(), ByName.end(),
              [&](uint32_t A, uint32_t B) {
                return Report.Functions[A].Name < Report.Functions[B].Name;
              });
    for (uint32_t I : ByName) {
      Out += "  [";
      appendUnsigned(Out, Report.Functions[I].ListingIndex);
      Out += "] ";
      Out += Report.Functions[I].Name;
      Out += '\n';
    }
  }
  return Out;
}

std::string gprof::printCallGraphEntry(const ProfileReport &Report,
                                       const std::string &Name) {
  uint32_t Fn = Report.findFunction(Name);
  if (Fn == ~0u)
    return std::string();
  std::string Out = listingHeader(/*Brief=*/true);
  printFunctionEntry(Report, ArcIndex(Report), Fn, Out);
  return Out;
}

std::string gprof::printReport(const ProfileReport &Report,
                               const ReportFlags &Flags) {
  FlatPrintOptions FP;
  FP.ShowZeroUsage = Flags.ShowZero;
  FP.Brief = Flags.Brief;
  GraphPrintOptions GP;
  GP.Brief = Flags.Brief;
  GP.PrintIndex = !Flags.NoIndex;

  std::string Text;
  if (!Flags.GraphOnly)
    Text += printFlatProfile(Report, FP);
  if (!Flags.FlatOnly && !Flags.GraphOnly)
    Text += "\n";
  if (!Flags.FlatOnly)
    Text += printCallGraph(Report, GP);
  return Text;
}
