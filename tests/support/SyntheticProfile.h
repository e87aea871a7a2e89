//===- tests/support/SyntheticProfile.h - Hand-built profiles -------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds symbol tables and profile data directly — no VM run — so that
/// benches and tests can pin exact call counts and self times.  This is
/// how the Figure 4 bench reconstructs the paper's EXAMPLE entry with the
/// published numbers.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_SUPPORT_SYNTHETICPROFILE_H
#define GPROF_TESTS_SUPPORT_SYNTHETICPROFILE_H

#include "core/Analyzer.h"
#include "core/SymbolTable.h"
#include "gmon/ProfileData.h"
#include "vm/StaticCallScanner.h"

#include <map>
#include <string>
#include <vector>

namespace gprof {

/// Incrementally describes a profile; build() realizes it.
class SyntheticProfileBuilder {
public:
  /// Routines are laid out \p FuncSize addresses apart starting at
  /// \p Base; self times become histogram samples at \p TicksPerSecond.
  explicit SyntheticProfileBuilder(uint64_t TicksPerSecond = 100,
                                   Address Base = 0x1000,
                                   uint64_t FuncSize = 100);

  /// Adds a routine; returns its index.
  uint32_t addFunction(const std::string &Name);

  /// Entry address of routine \p Fn.
  Address entryOf(uint32_t Fn) const { return Base + Fn * FuncSize; }
  /// A distinct call-site address inside \p Fn.
  Address siteOf(uint32_t Fn, uint32_t Site = 0) const {
    return entryOf(Fn) + 10 + Site;
  }

  /// Records \p Count dynamic calls from a call site in \p From to \p To.
  void addCall(uint32_t From, uint32_t To, uint64_t Count,
               uint32_t Site = 0);

  /// Records \p Count spontaneous activations of \p Fn.
  void addSpontaneous(uint32_t Fn, uint64_t Count = 1);

  /// Declares a statically-visible (count zero) arc From -> To.
  void addStaticArc(uint32_t From, uint32_t To, uint32_t Site = 0);

  /// Gives \p Fn exactly \p Seconds of self time (must quantize to whole
  /// samples at the configured rate).
  void setSelfSeconds(uint32_t Fn, double Seconds);

  /// The realized inputs for an Analyzer.
  struct Result {
    SymbolTable Syms;
    ProfileData Data;
    std::vector<StaticArc> StaticArcs;
  };
  Result build() const;

  /// Builds the profile and runs the Analyzer over it under \p Opts.
  Expected<ProfileReport> analyze(AnalyzerOptions Opts = {}) const;

private:
  uint64_t TicksPerSecond;
  Address Base;
  uint64_t FuncSize;
  std::vector<std::string> Names;
  ProfileData Data;
  std::vector<StaticArc> StaticArcs;
  std::map<uint32_t, double> SelfSeconds;
};

} // namespace gprof

#endif // GPROF_TESTS_SUPPORT_SYNTHETICPROFILE_H
