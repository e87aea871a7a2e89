//===- core/FlatPrinter.cpp ------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/FlatPrinter.h"

#include "support/Format.h"

using namespace gprof;

std::string gprof::printFlatProfile(const ProfileReport &Report,
                                    const FlatPrintOptions &Opts) {
  std::string Out;
  if (!Opts.Brief) {
    Out += "flat profile:\n\n";
    Out += format("Each sample counts for %g seconds; total %.2f seconds "
                  "attributed (%u run%s).\n\n",
                  1.0 / static_cast<double>(Report.TicksPerSecond),
                  Report.TotalTime, Report.RunCount,
                  Report.RunCount == 1 ? "" : "s");
  }
  if (Report.ArcTableOverflowed)
    Out += "warning: the arc table overflowed during collection; call "
           "counts are lower bounds\n\n";

  Out += "  %   cumulative   self              self     total\n";
  Out += " time   seconds   seconds    calls  ms/call  ms/call  name\n";

  double Cumulative = 0.0;
  for (uint32_t I : Report.FlatOrder) {
    const FunctionEntry &F = Report.Functions[I];
    if (F.isUnused() && !Opts.ShowZeroUsage)
      continue;
    Cumulative += F.SelfTime;

    appendFixed(Out,
                Report.TotalTime == 0.0
                    ? 0.0
                    : 100.0 * F.SelfTime / Report.TotalTime,
                5, 1);
    Out += ' ';
    appendFixed(Out, Cumulative, 10, 2);
    Out += ' ';
    appendFixed(Out, F.SelfTime, 9, 2);
    Out += ' ';
    if (F.totalCalls() != 0) {
      double N = static_cast<double>(F.totalCalls());
      appendUnsigned(Out, F.totalCalls(), 8);
      Out += ' ';
      appendFixed(Out, F.SelfTime * 1000.0 / N, 8, 2);
      Out += ' ';
      appendFixed(Out, F.totalTime() * 1000.0 / N, 8, 2);
    } else {
      Out.append(8 + 1 + 8 + 1 + 8, ' '); // Blank calls and ms/call.
    }
    Out += "  ";
    Out += F.Name;
    Out += '\n';
  }

  if (Report.UnattributedTime > 0.0)
    Out += format("\n%.2f seconds sampled outside every known routine\n",
                  Report.UnattributedTime);
  if (Report.ExcludedTime > 0.0)
    Out += format("\n%.2f seconds excluded from the analysis (-E)\n",
                  Report.ExcludedTime);

  if (!Report.UnusedFunctions.empty() && !Opts.ShowZeroUsage) {
    Out += "\nroutines never called in this execution:\n";
    for (uint32_t I : Report.UnusedFunctions) {
      Out += "    ";
      Out += Report.Functions[I].Name;
      Out += '\n';
    }
  }
  return Out;
}
