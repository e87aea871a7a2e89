//===- bench/BenchUtil.h - Shared helpers for the experiment benches ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small table-printing and timing helpers shared by the per-experiment
/// bench binaries.  Each bench regenerates one table or figure from the
/// paper (see DESIGN.md's per-experiment index) and prints PASS/FAIL
/// checks for the paper's qualitative claims.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_BENCH_BENCHUTIL_H
#define GPROF_BENCH_BENCHUTIL_H

#include "support/FileUtils.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gprof {
namespace bench {

/// Prints a banner naming the experiment.
inline void banner(const std::string &Id, const std::string &Title) {
  std::printf("\n==============================================================="
              "=\n");
  std::printf("%s: %s\n", Id.c_str(), Title.c_str());
  std::printf("================================================================"
              "\n");
}

/// Prints one row of a fixed-width table.
inline void row(const std::vector<std::string> &Cells, unsigned Width = 14) {
  std::string Line;
  for (const std::string &C : Cells)
    Line += padLeft(C, Width) + "  ";
  std::printf("%s\n", Line.c_str());
}

/// Prints a PASS/FAIL line for a claim check.
inline bool check(bool Ok, const std::string &Claim) {
  std::printf("  [%s] %s\n", Ok ? "PASS" : "FAIL", Claim.c_str());
  return Ok;
}

/// Machine-readable bench output: accumulates scalar fields plus one
/// uniform "results" array and writes BENCH_<name>.json, the file the
/// perf-tracking tooling scrapes.  Every file records the host's
/// hardware_concurrency first.  Values are stored pre-encoded; use the
/// typed set/setRow overloads.
class BenchJson {
public:
  explicit BenchJson(std::string Name) : Name(std::move(Name)) {
    set("hardware_concurrency",
        static_cast<uint64_t>(
            std::max(1u, std::thread::hardware_concurrency())));
  }

  void set(const std::string &Key, const std::string &Value) {
    Fields.emplace_back(Key, quote(Value));
  }
  void set(const std::string &Key, double Value) {
    Fields.emplace_back(Key, format("%.6g", Value));
  }
  void set(const std::string &Key, uint64_t Value) {
    Fields.emplace_back(Key, format("%llu",
                                    static_cast<unsigned long long>(Value)));
  }
  void set(const std::string &Key, bool Value) {
    Fields.emplace_back(Key, Value ? "true" : "false");
  }

  /// Starts a new row in the "results" array; subsequent setRow calls
  /// fill it.
  void beginRow() { Rows.emplace_back(); }
  void setRow(const std::string &Key, double Value) {
    Rows.back().emplace_back(Key, format("%.6g", Value));
  }
  void setRow(const std::string &Key, uint64_t Value) {
    Rows.back().emplace_back(Key, format("%llu",
                                         static_cast<unsigned long long>(
                                             Value)));
  }
  void setRow(const std::string &Key, const std::string &Value) {
    Rows.back().emplace_back(Key, quote(Value));
  }

  std::string render() const {
    std::string S = "{\n  \"bench\": " + quote(Name);
    for (const auto &[K, V] : Fields)
      S += ",\n  " + quote(K) + ": " + V;
    S += ",\n  \"results\": [";
    for (size_t R = 0; R != Rows.size(); ++R) {
      S += R == 0 ? "\n    {" : ",\n    {";
      for (size_t F = 0; F != Rows[R].size(); ++F)
        S += (F == 0 ? "" : ", ") + quote(Rows[R][F].first) + ": " +
             Rows[R][F].second;
      S += "}";
    }
    S += "\n  ]\n}\n";
    return S;
  }

  /// Writes BENCH_<name>.json into the working directory and reports the
  /// path on stdout.
  void write() const {
    std::string Path = "BENCH_" + Name + ".json";
    if (Error E = writeFileText(Path, render()))
      std::printf("  (could not write %s: %s)\n", Path.c_str(),
                  E.message().c_str());
    else
      std::printf("  wrote %s\n", Path.c_str());
  }

private:
  static std::string quote(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out + "\"";
  }

  std::string Name;
  std::vector<std::pair<std::string, std::string>> Fields;
  std::vector<std::vector<std::pair<std::string, std::string>>> Rows;
};

/// Wall-clock time of \p Fn in milliseconds, best of \p Reps repetitions.
inline double timeMs(const std::function<void()> &Fn, int Reps = 3) {
  double Best = 1e300;
  for (int R = 0; R != Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    Fn();
    auto End = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration<double, std::milli>(End - Start).count();
    if (Ms < Best)
      Best = Ms;
  }
  return Best;
}

/// One alternating pair of timings and the gate value computed from it.
struct TimedPair {
  double A = 0.0;
  double B = 0.0;
  double Value = 0.0;
};

/// Times \p TimeA and \p TimeB alternately (ABAB... over \p Pairs pairs,
/// after one untimed warm-up pair) and returns the pair whose gate value
/// \p Gate(a, b) is the median.  A burst of host load then lands on both
/// sides of some pairs alike, or spoils a minority of them, instead of
/// inflating one side's separately sampled best-of.
template <typename TimeAFn, typename TimeBFn, typename GateFn>
TimedPair medianPair(unsigned Pairs, TimeAFn TimeA, TimeBFn TimeB,
                     GateFn Gate) {
  TimeA();
  TimeB();
  std::vector<TimedPair> All(Pairs);
  for (TimedPair &P : All) {
    P.A = TimeA();
    P.B = TimeB();
    P.Value = Gate(P.A, P.B);
  }
  auto Mid = All.begin() + All.size() / 2;
  std::nth_element(All.begin(), Mid, All.end(),
                   [](const TimedPair &X, const TimedPair &Y) {
                     return X.Value < Y.Value;
                   });
  return *Mid;
}

} // namespace bench
} // namespace gprof

#endif // GPROF_BENCH_BENCHUTIL_H
