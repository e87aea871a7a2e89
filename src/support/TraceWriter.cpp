//===- support/TraceWriter.cpp - Chrome trace-event JSON export ------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/TraceWriter.h"

#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <set>

namespace gprof {

static std::string jsonQuote(const std::string &S) {
  std::string Out;
  telemetry::appendJsonString(Out, S);
  return Out;
}

/// Nanoseconds -> the format's microseconds, keeping ns precision.
static std::string microseconds(uint64_t Ns) {
  return format("%llu.%03u", static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
}

void TraceWriter::addThreadName(uint32_t Tid, const std::string &Name) {
  Events.push_back(
      {format("{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
              "\"args\":{\"name\":%s}}",
              Tid, jsonQuote(Name).c_str())});
}

void TraceWriter::addCompleteEvent(const std::string &Name,
                                   const std::string &Category, uint32_t Tid,
                                   uint64_t BeginNs, uint64_t DurNs) {
  Events.push_back(
      {format("{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":%s,\"cat\":%s,"
              "\"ts\":%s,\"dur\":%s}",
              Tid, jsonQuote(Name).c_str(), jsonQuote(Category).c_str(),
              microseconds(BeginNs).c_str(), microseconds(DurNs).c_str())});
}

std::string TraceWriter::render() const {
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  if (!ProcessName.empty()) {
    Out += format("\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                  "\"process_name\",\"args\":{\"name\":%s}}",
                  jsonQuote(ProcessName).c_str());
    First = false;
  }
  for (const Event &E : Events) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += E.Json;
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}

Error TraceWriter::writeFile(const std::string &Path) const {
  return writeFileText(Path, render());
}

TraceWriter TraceWriter::fromTelemetry(const std::string &ProcessName) {
  using telemetry::Registry;
  TraceWriter W;
  W.setProcessName(ProcessName);
  Registry &R = Registry::instance();
  std::vector<telemetry::SpanRecord> Spans = R.collectSpans();
  for (const auto &[Tid, Name] : R.threadNames())
    W.addThreadName(Tid, Name);
  // Spans tagged with a daemon request id land on a synthetic per-request
  // track instead of their OS thread's, so one request's client span,
  // serve.request span and everything the handler did line up on a single
  // named row regardless of which worker served it.
  std::set<uint64_t> ReqIds;
  for (const telemetry::SpanRecord &S : Spans)
    if (S.ReqId != 0)
      ReqIds.insert(S.ReqId);
  for (uint64_t Id : ReqIds)
    W.addThreadName(requestTrackTid(Id),
                    format("request-%llu",
                           static_cast<unsigned long long>(Id)));
  for (const telemetry::SpanRecord &S : Spans) {
    size_t Dot = S.Name.find('.');
    std::string Cat = Dot == std::string::npos ? S.Name : S.Name.substr(0, Dot);
    uint32_t Tid = S.ReqId != 0 ? requestTrackTid(S.ReqId) : S.Tid;
    W.addCompleteEvent(S.Name, Cat, Tid, S.BeginNs,
                       S.EndNs >= S.BeginNs ? S.EndNs - S.BeginNs : 0);
  }
  return W;
}

} // namespace gprof
