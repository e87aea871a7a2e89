//===- support/TraceWriter.h - Chrome trace-event JSON export --------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes telemetry phase spans to the Chrome trace-event JSON format,
/// loadable in `chrome://tracing` and https://ui.perfetto.dev.  The writer
/// emits complete events (`"ph":"X"`, microsecond `ts`/`dur`) plus
/// `thread_name` metadata so each profiler thread — "main" and every
/// "worker-N" — gets its own track.  Tests check the output with the
/// JSON validator in tests/support/Oracles.h.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_TRACEWRITER_H
#define GPROF_SUPPORT_TRACEWRITER_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gprof {

/// Accumulates trace events and renders the `{"traceEvents": [...]}`
/// container.
class TraceWriter {
public:
  /// Names the (single) process in the trace UI.
  void setProcessName(std::string Name) { ProcessName = std::move(Name); }

  /// Names a thread track (`"ph":"M"` thread_name metadata).
  void addThreadName(uint32_t Tid, const std::string &Name);

  /// One complete event (`"ph":"X"`).  Times are nanoseconds; the JSON
  /// carries microseconds (the format's unit) with ns precision retained
  /// as fractional digits.
  void addCompleteEvent(const std::string &Name, const std::string &Category,
                        uint32_t Tid, uint64_t BeginNs, uint64_t DurNs);

  size_t numEvents() const { return Events.size(); }

  /// The full trace document.
  std::string render() const;

  /// Renders and writes to \p Path.
  Error writeFile(const std::string &Path) const;

  /// Builds a trace from everything the telemetry registry has collected:
  /// one thread_name metadata event per registered thread and one complete
  /// event per span.  Span names of the form "layer.rest" use "layer" as
  /// the event category.  Spans tagged with a daemon request id are moved
  /// onto a synthetic "request-N" track (see requestTrackTid) so each
  /// request reads as one row end to end.
  static TraceWriter fromTelemetry(const std::string &ProcessName);

  /// The synthetic track id spans of request \p ReqId are drawn on —
  /// far above real telemetry thread ids.
  static uint32_t requestTrackTid(uint64_t ReqId) {
    return 1000000u + static_cast<uint32_t>(ReqId % 1000000u);
  }

private:
  struct Event {
    std::string Json; ///< Pre-rendered object, no trailing comma.
  };
  std::string ProcessName;
  std::vector<Event> Events;
};

} // namespace gprof

#endif // GPROF_SUPPORT_TRACEWRITER_H
