//===- bench_e2e/ledger.cpp - Samples, oracles and the per-layer ledger ---===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cstdio>

#include <sched.h>

using namespace gprof;
using namespace gprof::e2e;

namespace {

/// The CPUs the process may use, as found at the first call.
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Out.push_back(C);
    return Out;
  }();
  return Cpus;
}

void setAffinity(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  // Best effort: a refused pin leaves the thread where it was.
  (void)sched_setaffinity(0, sizeof(Set), &Set);
}

} // namespace

void e2e::pinToCpus(unsigned Turn, unsigned Count) {
  const std::vector<int> &Cpus = allowedCpus();
  std::vector<int> Mine;
  for (unsigned I = 0; I != Count && I != Cpus.size(); ++I)
    Mine.push_back(Cpus[(Turn + I) % Cpus.size()]);
  if (!Mine.empty())
    setAffinity(Mine);
}

double e2e::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double e2e::tailPercentile(std::vector<double> Values) {
  const size_t N = Values.size();
  if (N < 11)
    return 0;
  std::sort(Values.begin(), Values.end());
  // Rank N - 11 (0-based) has exactly ten samples above it.
  return Values[N - 11];
}

const std::vector<double> &Run::samples(const std::string &Name) const {
  static const std::vector<double> None;
  auto It = Samples.find(Name);
  return It == Samples.end() ? None : It->second;
}

bool Run::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    // One line per failing oracle, not one per pass.
    if (!Reported[What])
      std::printf("[FAIL] %s\n", What.c_str());
    Reported[What] = true;
  }
  return Ok;
}

void e2e::reduceLedger(Run &R, const std::vector<std::string> &Names) {
  static const char *const Layers[] = {"vm",   "runtime", "gmon",
                                       "core", "serve",   "store"};
  // Medians over the traced passes ("t." samples); a metric sampled only
  // in set-up (lang.compile_ms) or reduced by its workload keeps that.
  for (const std::string &Name : Names) {
    if (!R.samples("t." + Name).empty())
      R.setMedian(Name, "t." + Name);
    else if (!R.samples(Name).empty())
      R.setMedian(Name, Name);
  }

  // Layer shares and coverage, per traced pass, then the median.
  const std::vector<double> &Pipeline = R.samples("t.pipeline_ms");
  const std::vector<double> &Covered = R.samples("t.covered_ms");
  std::vector<double> Coverage;
  for (size_t I = 0; I != Pipeline.size() && I != Covered.size(); ++I)
    Coverage.push_back(Pipeline[I] > 0 ? 100.0 * Covered[I] / Pipeline[I]
                                       : 0);
  R.Values["coverage_pct"] = median(Coverage);
  R.Counts["coverage_pct"] = Coverage.size();
  for (const char *L : Layers) {
    const std::vector<double> &Mine =
        R.samples(std::string("t.layer.") + L + "_ms");
    std::vector<double> Shares;
    for (size_t I = 0; I != Mine.size(); ++I) {
      double Total = 0;
      for (const char *Other : Layers) {
        const std::vector<double> &V =
            R.samples(std::string("t.layer.") + Other + "_ms");
        Total += I < V.size() ? V[I] : 0;
      }
      Shares.push_back(Total > 0 ? 100.0 * Mine[I] / Total : 0);
    }
    R.Values[std::string("layer.") + L + "_pct"] = median(Shares);
    R.Counts[std::string("layer.") + L + "_pct"] = Shares.size();
  }
  double Plain = R.medianOf("pipeline_ms");
  double Traced = R.medianOf("t.pipeline_ms");
  R.Values["trace_overhead_pct"] =
      Plain > 0 ? 100.0 * (Traced - Plain) / Plain : 0;
  R.check(R.Values["coverage_pct"] >= 95.0,
          "the ledger assigns >= 95% of pipeline_s to named layers");
}
