//===- tests/support/Oracles.h - Reference implementations for tests ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracles tests compare the shipped code against:
///
/// - The original BinaryStream-based gmon reader, and the reference profile
///   the corrupted-gmon corpora cut up.  tests/readpath_test.cpp runs the
///   corpus through it and the zero-copy reader of gmon/GmonFile.h and
///   requires bit-identical results — same parse, same salvage tallies,
///   same error strings (docs/READPATH.md).  It restates the container
///   constants of docs/FORMATS.md instead of sharing the production
///   reader's, so a wrong constant shows up as a differential failure.
/// - A minimal recursive-descent JSON validator plus a Chrome trace-event
///   shape check, so tests and the gprof_trace_smoke ctest target accept or
///   reject the stats, event-log and trace documents the tools write
///   without an external JSON library (docs/TELEMETRY.md).
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_TESTS_SUPPORT_ORACLES_H
#define GPROF_TESTS_SUPPORT_ORACLES_H

#include "gmon/GmonFile.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace gprof {

/// Parses a gmon container with the reference reader.  Production code
/// calls readGmon.
Expected<ProfileData> readGmonReference(const std::vector<uint8_t> &Bytes,
                                        const GmonReadOptions &Opts = {},
                                        GmonSalvage *Salvage = nullptr);

/// The profile the truncation and mutation corpora cut up: 8 histogram
/// buckets with counts 1..8 and 5 arcs with distinct fields, so every
/// truncation point has a computable salvage prefix.
ProfileData makeRefData();

/// Summary of a validated trace document.
struct TraceStats {
  size_t Events = 0;         ///< Elements of "traceEvents".
  size_t CompleteEvents = 0; ///< `"ph":"X"`.
  size_t MetaEvents = 0;     ///< `"ph":"M"`.
  std::map<std::string, size_t> NameCounts; ///< Event name -> occurrences.
  std::set<uint64_t> Tids;   ///< Distinct "tid" values seen.
};

/// Strict whole-document JSON syntax check (objects, arrays, strings with
/// escapes, numbers, literals; rejects trailing garbage).  Returns the
/// number of bytes consumed on success.
Expected<size_t> validateJson(const std::string &Json);

/// validateJson plus trace-shape checks: the document must be an object
/// whose "traceEvents" member is an array of objects each carrying a
/// string "ph" and "name".  Returns per-event tallies.
Expected<TraceStats> validateTraceJson(const std::string &Json);

} // namespace gprof

#endif // GPROF_TESTS_SUPPORT_ORACLES_H
