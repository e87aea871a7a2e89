//===- hostprof/HostProfiler.h - Native profiling via real compiler hooks -===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reproduction's "real hardware" variant: the same two collection
/// mechanisms as the paper, on the host, using actual compiler
/// instrumentation.
///
///  - GCC's -finstrument-functions emits calls to
///    __cyg_profile_func_enter(callee, call_site) in every prologue —
///    precisely the (arc destination, arc source) pair mcount derives from
///    return addresses in §3.1.  The hook records arcs in the same
///    ArcRecorder structures the VM runtime uses.
///  - An ITIMER_PROF interval timer delivers SIGPROF in program time; the
///    (async-signal-safe) handler increments a preallocated histogram
///    bucket for the interrupted PC, exactly like the kernel's clock-tick
///    histogram in §3.2.
///
/// Symbolization happens at dump time via dladdr (link with -rdynamic so
/// local symbols resolve).  Everything degrades gracefully: unresolvable
/// addresses print as hex, and if /proc/self/maps cannot be parsed the
/// histogram is simply absent.
///
/// Only executables compiled with -finstrument-functions produce arcs;
/// this library itself is exempted via no_instrument_function attributes.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_HOSTPROF_HOSTPROFILER_H
#define GPROF_HOSTPROF_HOSTPROFILER_H

#include "core/SymbolTable.h"
#include "gmon/ProfileData.h"
#include "support/Error.h"

namespace gprof {
namespace host {

/// Host profiler configuration.
struct HostProfilerOptions {
  /// SIGPROF period in microseconds of program (user+system) time.
  uint64_t SampleMicros = 1000;
  /// Histogram bucket granularity in bytes of text.
  uint64_t BucketBytes = 16;
  /// Enable the PC-sampling histogram (arcs are always collected while
  /// the profiler is running).
  bool SampleHistogram = true;
};

/// Starts collecting.  Idempotent; returns an error if the text range for
/// the histogram cannot be determined (arcs still work in that case only
/// if \p Opts.SampleHistogram was false).
Error start(const HostProfilerOptions &Opts = HostProfilerOptions());

/// Stops collecting (cancels the timer; enter hooks become no-ops).
void stop();

/// True while collecting.
bool isRunning();

/// Zeroes collected arcs and samples.
void reset();

/// Snapshots the collected data.  TicksPerSecond is derived from the
/// sampling period.
ProfileData extract();

/// Builds a symbol table for the addresses appearing in \p Data using
/// dladdr.  Sizes are estimated as the gap to the next known symbol.
SymbolTable symbolize(const ProfileData &Data);

} // namespace host
} // namespace gprof

#endif // GPROF_HOSTPROF_HOSTPROFILER_H
