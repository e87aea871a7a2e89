//===- core/ContextTree.cpp ------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/ContextTree.h"

#include "support/Format.h"

#include <algorithm>

using namespace gprof;

Expected<ContextTree> ContextTree::build(const ProfileData &Data,
                                         const SymbolTable &Syms) {
  ContextTree T;
  T.Syms = &Syms;
  T.Hz = Data.TicksPerSecond;
  T.Overflowed = Data.ContextTreeOverflowed;
  T.SelfTicks.assign(Syms.size(), 0);
  T.TotalTicks.assign(Syms.size(), 0);
  T.Entries.reserve(Data.Contexts.size());

  for (size_t I = 0; I != Data.Contexts.size(); ++I) {
    const CctNode &N = Data.Contexts[I];
    if (N.Parent != CctRootParent && N.Parent >= I)
      return Error::failure(
          format("context tree node %zu has invalid parent %u", I, N.Parent));
    ContextEntry E;
    E.Parent = N.Parent;
    E.FromPc = N.FromPc;
    E.SelfPc = N.SelfPc;
    E.Calls = N.Calls;
    E.Ticks = N.Ticks;
    E.InclusiveTicks = N.Ticks;
    E.Routine = Syms.findContaining(N.SelfPc);
    if (E.Parent != CctRootParent) {
      E.Depth = T.Entries[E.Parent].Depth + 1;
      // Maximal = no proper ancestor runs the same routine; walking the
      // parent chain is O(depth), trivial next to symbolization.
      if (E.Routine != NoSymbol) {
        for (uint32_t A = E.Parent; A != CctRootParent;
             A = T.Entries[A].Parent) {
          if (T.Entries[A].Routine == E.Routine) {
            E.Maximal = false;
            break;
          }
        }
      }
    }
    T.Entries.push_back(E);
  }

  // Bottom-up inclusive accumulation: parents precede children, so one
  // reverse sweep settles every subtree.
  for (size_t I = T.Entries.size(); I-- != 0;) {
    const ContextEntry &E = T.Entries[I];
    if (E.Parent != CctRootParent)
      T.Entries[E.Parent].InclusiveTicks =
          saturatingAdd(T.Entries[E.Parent].InclusiveTicks, E.InclusiveTicks);
  }

  // Exact per-routine totals.  Self time sums every context; total time
  // sums only maximal contexts so recursive routines count each tick
  // exactly once.
  for (const ContextEntry &E : T.Entries) {
    if (E.Routine == NoSymbol) {
      T.Unattributed = saturatingAdd(T.Unattributed, E.Ticks);
      continue;
    }
    T.SelfTicks[E.Routine] = saturatingAdd(T.SelfTicks[E.Routine], E.Ticks);
    if (E.Maximal)
      T.TotalTicks[E.Routine] =
          saturatingAdd(T.TotalTicks[E.Routine], E.InclusiveTicks);
  }
  return T;
}

uint64_t ContextTree::exactSelfTicks(uint32_t Routine) const {
  return Routine < SelfTicks.size() ? SelfTicks[Routine] : 0;
}

uint64_t ContextTree::exactTotalTicks(uint32_t Routine) const {
  return Routine < TotalTicks.size() ? TotalTicks[Routine] : 0;
}

std::vector<uint32_t> ContextTree::routines() const {
  std::vector<char> Seen(Syms->size(), 0);
  for (const ContextEntry &E : Entries)
    if (E.Routine != NoSymbol)
      Seen[E.Routine] = 1;
  std::vector<uint32_t> Out;
  for (uint32_t I = 0; I != Seen.size(); ++I)
    if (Seen[I])
      Out.push_back(I);
  return Out;
}

std::string ContextTree::contextName(size_t I) const {
  // Collect the chain root-to-leaf.
  std::vector<uint32_t> Chain;
  for (uint32_t A = static_cast<uint32_t>(I); A != CctRootParent;
       A = Entries[A].Parent)
    Chain.push_back(A);
  std::string Out;
  for (size_t J = Chain.size(); J-- != 0;) {
    const ContextEntry &E = Entries[Chain[J]];
    if (E.Routine != NoSymbol)
      Out += Syms->symbol(E.Routine).Name;
    else
      Out += format("<pc 0x%llx>",
                    static_cast<unsigned long long>(E.SelfPc));
    if (J != 0)
      Out += " > ";
  }
  return Out;
}

std::string gprof::printContexts(const ContextTree &Tree,
                                 const ContextPrintOptions &Opts) {
  std::string Out;
  Out += format("calling-context profile: %zu contexts\n\n", Tree.size());
  if (Tree.empty()) {
    Out += "no contexts recorded (run with --contexts to collect them)\n";
    return Out;
  }
  if (Tree.overflowed())
    Out += "warning: the context tree overflowed during collection; "
           "context counts are lower bounds\n\n";

  // Routines by decreasing exact total time, ties by name — the same
  // deterministic discipline as the main listings.
  std::vector<uint32_t> Routines = Tree.routines();
  if (!Opts.FilterRoutines.empty()) {
    std::vector<uint32_t> Kept;
    for (uint32_t R : Routines) {
      const std::string &Name = Tree.symbols().symbol(R).Name;
      for (const std::string &F : Opts.FilterRoutines)
        if (Name == F) {
          Kept.push_back(R);
          break;
        }
    }
    Routines = std::move(Kept);
  }
  std::stable_sort(Routines.begin(), Routines.end(),
                   [&](uint32_t A, uint32_t B) {
                     uint64_t TA = Tree.exactTotalTicks(A);
                     uint64_t TB = Tree.exactTotalTicks(B);
                     if (TA != TB)
                       return TA > TB;
                     return Tree.symbols().symbol(A).Name <
                            Tree.symbols().symbol(B).Name;
                   });

  // Each routine's contexts, bucketed in one preorder sweep and then
  // ordered by decreasing inclusive ticks (ties keep preorder).
  std::vector<std::vector<uint32_t>> ContextsOf(Tree.symbols().size());
  for (uint32_t I = 0; I != Tree.size(); ++I)
    if (Tree.node(I).Routine != NoSymbol)
      ContextsOf[Tree.node(I).Routine].push_back(I);

  for (uint32_t R : Routines) {
    std::vector<uint32_t> &Ctxs = ContextsOf[R];
    std::stable_sort(Ctxs.begin(), Ctxs.end(), [&](uint32_t A, uint32_t B) {
      return Tree.node(A).InclusiveTicks > Tree.node(B).InclusiveTicks;
    });
    Out += format("%s: %zu context%s, exact self %.3fs, exact total %.3fs\n",
                  Tree.symbols().symbol(R).Name.c_str(), Ctxs.size(),
                  Ctxs.size() == 1 ? "" : "s",
                  Tree.ticksToSeconds(Tree.exactSelfTicks(R)),
                  Tree.ticksToSeconds(Tree.exactTotalTicks(R)));
    Out += "      calls   self(s)  total(s)  context\n";
    size_t Shown = 0;
    for (uint32_t C : Ctxs) {
      if (Shown == Opts.TopContexts) {
        Out += format("  ... %zu more context%s\n", Ctxs.size() - Shown,
                      Ctxs.size() - Shown == 1 ? "" : "s");
        break;
      }
      const ContextEntry &E = Tree.node(C);
      Out += format("%11llu %9.3f %9.3f  %s\n",
                    static_cast<unsigned long long>(E.Calls),
                    Tree.ticksToSeconds(E.Ticks),
                    Tree.ticksToSeconds(E.InclusiveTicks),
                    Tree.contextName(C).c_str());
      ++Shown;
    }
    Out += "\n";
  }
  if (Tree.unattributedTicks() != 0)
    Out += format("%.3f seconds sampled in contexts outside every known "
                  "routine\n",
                  Tree.ticksToSeconds(Tree.unattributedTicks()));
  return Out;
}

PropagationErrorReport
gprof::propagationError(const ProfileReport &Report, const ContextTree &Tree) {
  PropagationErrorReport R;
  R.TotalSecs = Report.TotalTime;
  std::vector<uint64_t> ContextCount(Tree.symbols().size(), 0);
  for (size_t I = 0; I != Tree.size(); ++I)
    if (Tree.node(I).Routine != NoSymbol)
      ++ContextCount[Tree.node(I).Routine];

  for (const FunctionEntry &F : Report.Functions) {
    uint64_t Exact = Tree.exactTotalTicks(F.SymbolIndex);
    if (F.isUnused() && Exact == 0)
      continue;
    PropagationErrorRow Row;
    Row.Name = F.Name;
    Row.Contexts = F.SymbolIndex < ContextCount.size()
                       ? ContextCount[F.SymbolIndex]
                       : 0;
    Row.PropagatedSecs = F.totalTime();
    Row.ExactSecs = Tree.ticksToSeconds(Exact);
    Row.AbsError = Row.PropagatedSecs > Row.ExactSecs
                       ? Row.PropagatedSecs - Row.ExactSecs
                       : Row.ExactSecs - Row.PropagatedSecs;
    Row.RelError = Row.ExactSecs > 0.0 ? Row.AbsError / Row.ExactSecs : 0.0;
    Row.CycleNumber = F.CycleNumber;
    R.Rows.push_back(std::move(Row));
    if (R.Rows.back().AbsError > R.MaxAbsError)
      R.MaxAbsError = R.Rows.back().AbsError;
    if (R.Rows.back().RelError > R.MaxRelError)
      R.MaxRelError = R.Rows.back().RelError;
  }
  std::stable_sort(R.Rows.begin(), R.Rows.end(),
                   [](const PropagationErrorRow &A,
                      const PropagationErrorRow &B) {
                     if (A.AbsError != B.AbsError)
                       return A.AbsError > B.AbsError;
                     return A.Name < B.Name;
                   });
  return R;
}

std::string gprof::printPropagationError(const PropagationErrorReport &R) {
  std::string Out;
  Out += "propagation error (paper sec. 6: propagated vs exact inclusive "
         "time)\n\n";
  Out += "  propagated     exact   abs.err   rel.err  contexts  routine\n";
  for (const PropagationErrorRow &Row : R.Rows) {
    Out += format("%12.3f %9.3f %9.3f %8.1f%% %9llu  %s%s\n",
                  Row.PropagatedSecs, Row.ExactSecs, Row.AbsError,
                  Row.RelError * 100.0,
                  static_cast<unsigned long long>(Row.Contexts),
                  Row.Name.c_str(),
                  Row.CycleNumber != 0
                      ? format(" (cycle %u)", Row.CycleNumber).c_str()
                      : "");
  }
  Out += format("\nmax abs error %.3fs, max rel error %.1f%%\n",
                R.MaxAbsError, R.MaxRelError * 100.0);
  return Out;
}

std::string gprof::propagationErrorJson(const PropagationErrorReport &R,
                                        const std::string &Program) {
  std::string Out = "{\n";
  Out += format("  \"program\": \"%s\",\n", Program.c_str());
  Out += format("  \"total_sec\": %.6f,\n", R.TotalSecs);
  Out += format("  \"max_abs_error_sec\": %.6f,\n", R.MaxAbsError);
  Out += format("  \"max_rel_error\": %.6f,\n", R.MaxRelError);
  Out += "  \"rows\": [\n";
  for (size_t I = 0; I != R.Rows.size(); ++I) {
    const PropagationErrorRow &Row = R.Rows[I];
    Out += format("    {\"routine\": \"%s\", \"contexts\": %llu, "
                  "\"propagated_sec\": %.6f, \"exact_sec\": %.6f, "
                  "\"abs_error_sec\": %.6f, \"rel_error\": %.6f, "
                  "\"cycle\": %u}%s\n",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(Row.Contexts),
                  Row.PropagatedSecs, Row.ExactSecs, Row.AbsError,
                  Row.RelError, Row.CycleNumber,
                  I + 1 == R.Rows.size() ? "" : ",");
  }
  Out += "  ]\n}\n";
  return Out;
}

std::vector<ArcRecord>
gprof::collapseContextsToArcs(const std::vector<CctNode> &Nodes) {
  ProfileData Tmp;
  for (const CctNode &N : Nodes)
    if (N.Calls != 0) // zero-call spine nodes (post-reset) imply no arc
      Tmp.addArc(N.FromPc, N.SelfPc, N.Calls);
  Tmp.canonicalizeArcs();
  return std::move(Tmp.Arcs);
}
