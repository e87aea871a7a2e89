//===- core/ContextTree.h - Exact per-context times from a recorded CCT ---===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer side of the calling-context tree: load the canonical node
/// vector a profile carries (ProfileData::Contexts), symbolize each
/// context, and compute *exact* inclusive times by bottom-up accumulation
/// — no propagation, no approximation.  Collapsing those exact times per
/// routine yields the ground truth the paper's §6 formula
///
///   T_r = S_r + sum over r CALLS e of T_e * C^r_e / C_e
///
/// can be measured against: the formula spreads each callee's time over
/// its call sites in proportion to call counts, which is only right when
/// "all calls to a routine cost the same".  The propagation-error report
/// tabulates |propagated − exact| per routine, a result the 1982 paper
/// could not produce.
///
/// Also renders the `gprof --contexts` listing: the top contexts of each
/// routine as root-to-leaf call chains with exact per-context times.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_CORE_CONTEXTTREE_H
#define GPROF_CORE_CONTEXTTREE_H

#include "core/Report.h"
#include "core/SymbolTable.h"
#include "gmon/ProfileData.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace gprof {

/// One analyzed context: a CctNode plus its symbolization and the exact
/// inclusive tick count of its subtree.
struct ContextEntry {
  uint32_t Parent = CctRootParent;
  Address FromPc = 0;
  Address SelfPc = 0;
  uint64_t Calls = 0;
  uint64_t Ticks = 0;          ///< Samples while this context was innermost.
  uint64_t InclusiveTicks = 0; ///< Ticks of this context and all below it.
  uint32_t Routine = NoSymbol; ///< Symbol index of the routine run here.
  uint32_t Depth = 0;          ///< Root contexts have depth 0.
  /// True when no proper ancestor runs the same routine.  Exact
  /// per-routine total time sums InclusiveTicks over maximal contexts
  /// only, so recursion never double-counts a tick.
  bool Maximal = true;
};

/// The analyzed context tree of one profile.  Borrows the symbol table;
/// the caller keeps it alive (as with Analyzer).
class ContextTree {
public:
  /// Builds from \p Data.Contexts against \p Syms (which must be
  /// finalized).  Fails on a structurally invalid vector (a node whose
  /// parent does not precede it).  An empty Contexts yields an empty
  /// tree, distinguishable via empty().
  static Expected<ContextTree> build(const ProfileData &Data,
                                     const SymbolTable &Syms);

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }
  const ContextEntry &node(size_t I) const { return Entries[I]; }
  const SymbolTable &symbols() const { return *Syms; }
  uint64_t ticksPerSecond() const { return Hz; }
  bool overflowed() const { return Overflowed; }

  /// Exact self / inclusive (recursion-deduplicated) ticks of \p Routine
  /// summed over its contexts; 0 for a routine with none.
  uint64_t exactSelfTicks(uint32_t Routine) const;
  uint64_t exactTotalTicks(uint32_t Routine) const;
  /// Samples attributed to contexts whose SelfPc symbolizes to no routine.
  uint64_t unattributedTicks() const { return Unattributed; }

  /// Symbol indices of every routine with at least one context, in
  /// symbol-table (address) order.
  std::vector<uint32_t> routines() const;

  /// Renders context \p I as a root-to-leaf call chain, e.g.
  /// "main > fast > work".  Unsymbolized frames render as "<pc 0x...>".
  std::string contextName(size_t I) const;

  double ticksToSeconds(uint64_t Ticks) const {
    return Hz == 0 ? 0.0
                   : static_cast<double>(Ticks) / static_cast<double>(Hz);
  }

private:
  std::vector<ContextEntry> Entries;
  const SymbolTable *Syms = nullptr;
  uint64_t Hz = 60;
  bool Overflowed = false;
  /// Exact tick totals indexed by symbol, filled at build time.
  std::vector<uint64_t> SelfTicks;
  std::vector<uint64_t> TotalTicks;
  uint64_t Unattributed = 0;
};

/// `gprof --contexts` rendering controls.
struct ContextPrintOptions {
  /// Contexts listed per routine (the rest are summarized).
  unsigned TopContexts = 5;
  /// When nonempty, list only these routines (--context-filter NAME,
  /// repeatable).
  std::vector<std::string> FilterRoutines;
};

/// Renders the calling-context listing: per routine (by decreasing exact
/// total time, ties by name), its exact self/total seconds and top
/// contexts as call chains with per-context calls and times.
std::string printContexts(const ContextTree &Tree,
                          const ContextPrintOptions &Opts = {});

/// One routine's row of the §6 propagation-error report.
struct PropagationErrorRow {
  std::string Name;
  uint64_t Contexts = 0;      ///< Contexts ending in this routine.
  double PropagatedSecs = 0;  ///< totalTime() from §6 propagation.
  double ExactSecs = 0;       ///< Exact inclusive time from the CCT.
  double AbsError = 0;        ///< |PropagatedSecs - ExactSecs|.
  double RelError = 0;        ///< AbsError / ExactSecs (0 when exact is 0).
  uint32_t CycleNumber = 0;   ///< Nonzero: propagated time is cycle-shared.
};

/// The §6 propagation-error report over one profile.
struct PropagationErrorReport {
  std::vector<PropagationErrorRow> Rows; ///< By decreasing AbsError.
  double MaxAbsError = 0;
  double MaxRelError = 0;
  double TotalSecs = 0; ///< The report's propagated total time.
};

/// Compares the analyzer's propagated per-routine times against the
/// tree's exact inclusive times.  \p Report must come from an Analyzer
/// over the same symbol table \p Tree was built against (FunctionEntry::
/// SymbolIndex and ContextEntry::Routine must agree).
PropagationErrorReport propagationError(const ProfileReport &Report,
                                        const ContextTree &Tree);

/// Renders the report as the EXPERIMENTS.md-style text table.
std::string printPropagationError(const PropagationErrorReport &R);

/// Renders the report as machine-readable JSON; \p Program labels it.
std::string propagationErrorJson(const PropagationErrorReport &R,
                                 const std::string &Program);

/// Collapses a context-node vector per (FromPc, SelfPc): the arc table
/// the tree implies, in canonical arc order.  The CCT metamorphic
/// invariant (tests/metamorphic_test.cpp) requires this to equal the arc
/// table the arc recorders produced, byte-identically.
std::vector<ArcRecord> collapseContextsToArcs(const std::vector<CctNode> &Nodes);

} // namespace gprof

#endif // GPROF_CORE_CONTEXTTREE_H
