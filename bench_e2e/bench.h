//===- bench_e2e/bench.h - Shared pieces of the end-to-end benchmark ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver runs one workload for a fixed number of seconds, one pass
/// after another, and collects one sample per pass for every metric.  A
/// Run holds those samples, the oracle tallies and the input properties;
/// the driver reduces it to medians and prints the result line.
///
//===----------------------------------------------------------------------===//
#ifndef GPROF_BENCH_E2E_BENCH_H
#define GPROF_BENCH_E2E_BENCH_H

#include "generate.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gprof {
namespace e2e {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: spans on for every other pass, per-layer ledger out.
  bool Trace = false;
  Scale Size = Scale::Full;
  /// Names one oracle whose input is deliberately damaged (self-test).
  std::string Break;
  /// Set-up repetitions; setup_s is their median.
  unsigned SetupReps = 3;
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times one call, in milliseconds.
class Stopwatch {
public:
  Stopwatch() : Start(nowSeconds()) {}
  double ms() const { return (nowSeconds() - Start) * 1e3; }
  double lapMs() {
    double Now = nowSeconds(), Ms = (Now - Start) * 1e3;
    Start = Now;
    return Ms;
  }

private:
  double Start;
};

/// Pins the calling thread (and the threads it creates from now on) to
/// \p Count CPUs starting at the \p Turn-th, counting modulo the CPUs
/// the process may use.  A shared host's cores differ in speed, and a
/// thread left alone tends to stay on one; taking the passes of a run on
/// every core in turn makes a run's median independent of where it
/// landed.
void pinToCpus(unsigned Turn, unsigned Count = 1);

/// The median of \p Values; 0 when there are none.
double median(std::vector<double> Values);

/// The value at the highest percentile that has at least ten samples
/// beyond it; 0 with fewer than eleven samples.
double tailPercentile(std::vector<double> Values);

/// Everything one workload run produced.
class Run {
public:
  explicit Run(const Options &Opts) : Opts(Opts) {}

  const Options &Opts;

  /// One sample of \p Name (one per pass, or per operation).
  void add(const std::string &Name, double Value) {
    Samples[Name].push_back(Value);
  }
  const std::vector<double> &samples(const std::string &Name) const;
  double medianOf(const std::string &Name) const {
    return median(samples(Name));
  }

  /// Records one oracle verdict against the operation it checks.  A check
  /// that could pass on empty input is preceded by a nonEmpty() check.
  bool check(bool Ok, const std::string &What);
  bool nonEmpty(bool Ok, const std::string &What) {
    return check(Ok, "non-empty input: " + What);
  }
  /// Counts one attempted operation (a pass, a push, a query).
  void attempt(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Input properties, printed once (routines, call sites, bytes...).
  std::map<std::string, double> Properties;
  /// Reduced values: the contract's metrics and the per-layer ledger,
  /// with the number of samples each was reduced from.
  std::map<std::string, double> Values;
  std::map<std::string, size_t> Counts;
  /// Values[Name] = \p Scale * the median of samples(\p Sample).
  void setMedian(const std::string &Name, const std::string &Sample,
                 double Scale = 1) {
    Values[Name] = Scale * medianOf(Sample);
    Counts[Name] = samples(Sample).size();
  }

private:
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, bool> Reported;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Workload entry points: set up (Opts.SetupReps times), run passes for
/// Opts.Seconds, reduce samples into R.Values.  Return false when the
/// workload could not run at all.
bool runOffline(Run &R);
bool runIngest(Run &R);

/// Reduces the per-layer metrics \p Names from the traced passes'
/// samples, adds the layer shares, and checks coverage of pipeline_s.
void reduceLedger(Run &R, const std::vector<std::string> &Names);

} // namespace e2e
} // namespace gprof

#endif // GPROF_BENCH_E2E_BENCH_H
