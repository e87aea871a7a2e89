//===- core/GraphPrinter.h - The call graph profile listing (§5.2) --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the dense per-routine call graph listing of paper Figure 4:
/// each entry shows the routine's parents above the primary line and its
/// children below it, with the self and descendant time propagated along
/// each arc, call-count fractions, cycle annotations, and cross-reference
/// indices ("notations to help us navigate the output").
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_CORE_GRAPHPRINTER_H
#define GPROF_CORE_GRAPHPRINTER_H

#include "core/Report.h"

#include <string>
#include <vector>

namespace gprof {

/// Call graph listing controls.
struct GraphPrintOptions {
  /// Suppress the field-description blurb (gprof -b).
  bool Brief = false;
  /// If nonempty, print only entries for these routines (and the cycles
  /// containing them) — the retrospective's "show ... only parts of the
  /// graph containing certain methods" filter.
  std::vector<std::string> OnlyFunctions;
  /// Entries for these routines are omitted.
  std::vector<std::string> ExcludeFunctions;
  /// Append the alphabetical index cross-reference table.
  bool PrintIndex = true;
};

/// Renders the call graph profile listing.
std::string printCallGraph(const ProfileReport &Report,
                           const GraphPrintOptions &Opts = {});

/// Renders only the entry for routine \p Name (convenience for tests and
/// the Figure 4 bench).  Returns an empty string if the routine is absent.
std::string printCallGraphEntry(const ProfileReport &Report,
                                const std::string &Name);

/// The five listing flags of `gprof-store report`, also carried by the
/// daemon's QUERY_REPORT (serve/Protocol.h encodes them bit for bit).
struct ReportFlags {
  bool FlatOnly = false;
  bool GraphOnly = false;
  bool Brief = false;
  bool NoIndex = false;
  bool ShowZero = false;
};

/// Renders a store report: the flat profile, a blank separator line, then
/// the call graph, each part as \p Flags select.  `gprof-store report`
/// prints this text and the daemon answers QUERY_REPORT with it, so the
/// two are byte-identical by construction.
std::string printReport(const ProfileReport &Report, const ReportFlags &Flags);

} // namespace gprof

#endif // GPROF_CORE_GRAPHPRINTER_H
