//===- bench_e2e/driver.cpp - The end-to-end profiler benchmark -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench_e2e --workload calls|wide|contexts|ingest --seed N --seconds S
///           --trace 0|1 [--short] [--break ORACLE] [--workdir DIR]
///
/// Runs one workload in process, prints a readable report, and ends with
/// one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
/// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ledger.  Exits nonzero when any oracle failed.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "support/Format.h"
#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace gprof;
using namespace gprof::e2e;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The contract's end-to-end metrics: every workload reports each one.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},     {"pipeline_s", "s"},   {"capture_ms", "ms"},
    {"report_ms", "ms"},  {"peak_rss_mb", "MB"},
};

/// The workload-specific end-to-end figures, by their own names; a figure
/// that does not apply to a workload reads 0.  Printed on every run and
/// reported with the ledger.
const MetricSpec Figures[] = {
    {"run_s", "s"},
    {"overhead_ratio", "ratio"},
    {"report_s", "s"},
    {"push_p50_ms", "ms"},
    {"ingest_shards_per_s", "1/s"},
    {"query_p50_ms", "ms"},
    {"error_rate", "ratio"},
};

/// The per-layer ledger of a traced run.  A layer a workload bypasses
/// reads 0.
const MetricSpec Layers[] = {
    {"lang.compile_ms", "ms"},
    {"vm.bare_run_ms", "ms"},
    {"vm.instructions", "count"},
    {"vm.calls", "count"},
    {"vm.image_load_ms", "ms"},
    {"vm.static_scan_ms", "ms"},
    {"runtime.mcount_ns_per_call", "ns"},
    {"runtime.mcount.probes_per_record", "ratio"},
    {"runtime.mcount.collisions", "count"},
    {"runtime.cct_ns_per_enter", "ns"},
    {"runtime.cct.probes_per_enter", "ratio"},
    {"runtime.cct.nodes", "count"},
    {"runtime.extract_ms", "ms"},
    {"gmon.write_ms", "ms"},
    {"gmon.read_ms", "ms"},
    {"gmon.bytes", "bytes"},
    {"core.symtab_ms", "ms"},
    {"core.symbolize_ms", "ms"},
    {"core.assign_ms", "ms"},
    {"core.propagate_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"core.analyze.unspanned_ms", "ms"},
    {"core.print_flat_ms", "ms"},
    {"core.print_graph_ms", "ms"},
    {"core.report_bytes", "bytes"},
    {"core.context_build_ms", "ms"},
    {"core.print_contexts_ms", "ms"},
    {"core.prop_error_ms", "ms"},
    {"store.put_ms", "ms"},
    {"store.put.bytes", "bytes"},
    {"store.compact_busy_ms", "ms"},
    {"store.compact.steps", "count"},
    {"store.merge_ms", "ms"},
    {"store.merge.runs_used", "count"},
    {"store.merge.loose_shards", "count"},
    {"store.merge.cache_hit_ratio", "ratio"},
    {"serve.put_handler_ms", "ms"},
    {"serve.query_handler_ms", "ms"},
    {"serve.wire_wait_ms", "ms"},
    {"serve.retry_ratio", "ratio"},
    {"serve.queue.peak", "count"},
    {"serve.push_tail_ms", "ms"},
    {"serve.query_tail_ms", "ms"},
    // Layer shares of the traced passes' named-layer time.
    {"layer.vm_pct", "%"},
    {"layer.runtime_pct", "%"},
    {"layer.gmon_pct", "%"},
    {"layer.core_pct", "%"},
    {"layer.serve_pct", "%"},
    {"layer.store_pct", "%"},
    // Self-checks.
    {"trace_overhead_pct", "%"},
    {"coverage_pct", "%"},
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "calls|wide|contexts|ingest --seed N --seconds S --trace 0|1 "
               "[--short] [--break ORACLE] [--workdir DIR]\n",
               Msg);
  return 2;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

std::string number(double V) {
  // JSON has no NaN or infinity; a metric that is not a number is a bug,
  // reported through an oracle in main().
  return std::isfinite(V) ? format("%.17g", V) : "0";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string WorkDir = ".bench_build/work";
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--short") {
      O.Size = Scale::Short;
      continue;
    }
    if (!(V = Next()))
      return usage(("missing value for " + A).c_str());
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--break") {
      O.Break = V;
    } else if (A == "--workdir") {
      WorkDir = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    return usage("--workload and --seed are required");
  if (O.Workload != "calls" && O.Workload != "wide" &&
      O.Workload != "contexts" && O.Workload != "ingest")
    return usage(("unknown workload " + O.Workload).c_str());
  if (O.Size == Scale::Short)
    O.SetupReps = 1;

  // Every file the run writes lives in a private directory, and relative
  // paths keep the daemon's socket path short.
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(WorkDir) /
                 format("%s-%ld", O.Workload.c_str(), long(getpid()));
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC || chdir(Dir.c_str()) != 0) {
    std::fprintf(stderr, "bench_e2e: cannot use work directory %s\n",
                 Dir.c_str());
    return 1;
  }
  telemetry::Registry::instance().setCurrentThreadName("bench");

  Run R(O);
  bool Ran = O.Workload == "ingest" ? runIngest(R) : runOffline(R);
  fs::path Here = fs::current_path();
  if (chdir(Here.parent_path().c_str()) == 0)
    fs::remove_all(Here, EC);
  if (!Ran) {
    std::fprintf(stderr, "bench_e2e: workload %s could not run\n",
                 O.Workload.c_str());
    return 1;
  }
  R.Values["peak_rss_mb"] = peakRssMb();
  if (O.Trace) {
    std::vector<std::string> Names;
    for (const MetricSpec &M : Layers)
      Names.push_back(M.Name);
    reduceLedger(R, Names);
  }
  R.Values["error_rate"] =
      double(R.failed()) / double(R.attempted() ? R.attempted() : 1);

  std::printf("workload %s, seed %llu, %.0f s, trace %d, host nproc %ld\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("inputs:");
  for (const auto &[Name, Value] : R.Properties)
    std::printf(" %s=%.0f", Name.c_str(), Value);
  std::printf("\n");
  auto Print = [&](const MetricSpec &M) {
    size_t N = R.Counts[M.Name];
    std::printf("  %-34s %14.6g %-6s", M.Name, R.Values[M.Name], M.Unit);
    if (N)
      std::printf(" (median of %zu)", N);
    std::printf("\n");
  };
  std::printf("end-to-end:\n");
  for (const MetricSpec &M : EndToEnd)
    Print(M);
  for (const MetricSpec &M : Figures)
    Print(M);
  if (O.Trace) {
    std::printf("per-layer ledger (traced passes):\n");
    for (const MetricSpec &M : Layers)
      Print(M);
  }

  for (const auto &[Name, Value] : R.Values)
    R.check(std::isfinite(Value), "metric " + Name + " is a finite number");
  bool Correct = R.failed() == 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += format(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                 (unsigned long long)R.attempted(),
                 (unsigned long long)R.failed());
  bool First = true;
  auto Emit = [&](const MetricSpec &M) {
    Json += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   First ? "" : ", ", M.Name,
                   number(R.Values[M.Name]).c_str(), M.Unit);
    First = false;
  };
  if (O.Trace) {
    for (const MetricSpec &M : Figures)
      Emit(M);
    for (const MetricSpec &M : Layers)
      Emit(M);
  } else
    for (const MetricSpec &M : EndToEnd)
      Emit(M);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
