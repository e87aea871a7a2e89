//===- core/Analyzer.h - The gprof post-processing pipeline ---------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (§4): combine the arc table and the PC
/// histogram into a call graph profile.  The pipeline:
///
///  1. symbolize arcs (callers that resolve to no routine are
///     "spontaneous");
///  2. apply arc deletions (the retrospective's -k option) and, optionally,
///     the bounded cycle-breaking heuristic;
///  3. add statically discovered arcs with count zero (before cycle
///     discovery, "since they may complete strongly connected
///     components");
///  4. assign histogram samples to routines as self time, prorating
///     buckets that straddle routine boundaries;
///  5. find strongly connected components (Tarjan), collapse them into
///     cycles, and topologically number the condensed graph;
///  6. propagate time from callees to callers in a single sweep:
///     T_r = S_r + sum over r CALLS e of T_e * C^r_e / C_e,
///     with cycles treated as single entities, and self arcs and
///     intra-cycle arcs listed but never propagated;
///  7. produce the report: flat order, graph listing order with
///     cross-reference indices, never-called routines.
///
/// Every step runs on the calling thread, in one fixed order, so the
/// listings are a pure function of the inputs.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_CORE_ANALYZER_H
#define GPROF_CORE_ANALYZER_H

#include "core/Report.h"
#include "core/SymbolTable.h"
#include "gmon/ProfileData.h"
#include "support/Error.h"
#include "vm/StaticCallScanner.h"

#include <string>
#include <utility>
#include <vector>

namespace gprof {

/// Analysis controls.
struct AnalyzerOptions {
  /// Incorporate statically discovered arcs (gprof -c): "Statically
  /// discovered arcs that do not exist in the dynamic call graph are added
  /// to the graph with a traversal count of zero" (§4).
  bool UseStaticArcs = false;
  /// (caller name, callee name) arcs to delete from the analysis before
  /// cycle discovery (gprof -k).
  std::vector<std::pair<std::string, std::string>> DeleteArcs;
  /// Routines whose sampled time is removed from the analysis entirely
  /// (gprof -E): they keep their call counts but contribute no self time,
  /// propagate nothing, and are excluded from the total used for
  /// percentages.  Useful for discounting e.g. an idle loop.
  std::vector<std::string> ExcludeTimeOf;
  /// If nonzero, run the retrospective's cycle-breaking heuristic with
  /// this bound on the number of arcs it may remove.
  unsigned AutoBreakCycleBound = 0;
  /// Unread: the analysis always runs on the calling thread.  Kept only
  /// because bench_e2e/ still assigns it; remove it together with those
  /// assignments.
  unsigned Threads = 1;
};

/// Analyzes profile data against a symbol table.
class Analyzer {
public:
  explicit Analyzer(SymbolTable Syms, AnalyzerOptions Opts = AnalyzerOptions());

  /// Supplies static call arcs (used only when UseStaticArcs is set).
  void setStaticArcs(std::vector<StaticArc> Arcs) {
    StaticArcs = std::move(Arcs);
  }

  /// Runs the full pipeline over \p Data.
  Expected<ProfileReport> analyze(const ProfileData &Data) const;

  const SymbolTable &symbols() const { return Syms; }
  const AnalyzerOptions &options() const { return Opts; }

private:
  SymbolTable Syms;
  AnalyzerOptions Opts;
  std::vector<StaticArc> StaticArcs;
};

/// Convenience wrapper: builds the symbol table and static arcs from a VM
/// image and analyzes \p Data against it.
Expected<ProfileReport> analyzeImageProfile(const Image &Img,
                                            const ProfileData &Data,
                                            AnalyzerOptions Opts = {});

} // namespace gprof

#endif // GPROF_CORE_ANALYZER_H
