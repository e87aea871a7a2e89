//===- bench_e2e/generate.cpp - Seeded TL program generators --------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "generate.h"

#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <vector>

using namespace gprof;
using namespace gprof::e2e;

namespace {

/// Keeps every running sum far from int64 overflow.
constexpr const char *Mod = "1000003";

/// A one-line leaf body.  Only the constants vary with the seed, so every
/// seed's program does the same amount of work.
std::string leafBody(SplitMix64 &Rng) {
  unsigned long long A = Rng.nextInRange(2, 97), B = Rng.nextInRange(1, 97);
  return format("return (x * %llu + %llu) %% 1009;", A, B);
}

} // namespace

GeneratedSource e2e::generateCalls(uint64_t Seed, Scale S) {
  SplitMix64 Rng(Seed ^ 0xCA11CA11ull);
  const unsigned Leaves = 24, Mids = 6, LeavesPerMid = 4, Targets = 4;
  const unsigned Depth = 5;
  const uint64_t Iterations = S == Scale::Full ? 60000 : 500;

  GeneratedSource G;
  std::string &Src = G.Source;
  for (unsigned L = 0; L != Leaves; ++L)
    Src += format("fn leaf%u(x) { %s }\n", L, leafBody(Rng).c_str());
  for (unsigned M = 0; M != Mids; ++M) {
    Src += format("fn mid%u(x) { return (", M);
    for (unsigned K = 0; K != LeavesPerMid; ++K)
      Src += format("%sleaf%u(x + %u)", K ? " + " : "",
                    unsigned(Rng.nextBelow(Leaves)), K);
    Src += format(") %% %s; }\n", Mod);
  }
  // The one cycle: a mutually recursive pair.
  Src += "fn ping(n) { if (n < 1) { return 0; } return pong(n - 1) + 1; }\n";
  Src += "fn pong(n) { if (n < 1) { return 1; } return ping(n - 1) + 2; }\n";
  // One indirect call site (in apply) reaching several callees.
  Src += "fn choose(i) {\n";
  for (unsigned T = 0; T + 1 != Targets; ++T)
    Src += format("  if (i %% %u == %u) { return &leaf%u; }\n", Targets, T,
                  unsigned(Rng.nextBelow(Leaves)));
  Src += format("  return &leaf%u;\n}\n", unsigned(Rng.nextBelow(Leaves)));
  Src += "fn apply(f, x) { return f(x); }\n";
  Src += "fn step(i) {\n  var t = 0;\n";
  for (unsigned M = 0; M != Mids; ++M)
    Src += format("  t = t + mid%u(i);\n", M);
  Src += format("  t = t + ping(%u) + apply(choose(i), i);\n", Depth);
  Src += format("  return t %% %s;\n}\n", Mod);
  Src += format("fn main() {\n  var i = 0;\n  var t = 0;\n"
                "  while (i < %llu) { t = (t + step(i)) %% %s; i = i + 1; }\n"
                "  print t;\n  return 0;\n}\n",
                (unsigned long long)Iterations, Mod);
  G.Routines = Leaves + Mids + 6;
  return G;
}

GeneratedSource e2e::generateWide(uint64_t Seed, Scale S) {
  SplitMix64 Rng(Seed ^ 0x0D1DE5ull);
  const unsigned N = S == Scale::Full ? 5000 : 200;
  const unsigned Fanout = 5, Window = 64, BackReach = 6;

  GeneratedSource G;
  std::string &Src = G.Source;
  for (unsigned I = 0; I != N; ++I) {
    std::vector<unsigned> Callees;
    for (unsigned K = 0; K != Fanout && I + 1 < N; ++K)
      Callees.push_back(
          std::min<unsigned>(N - 1, I + 1 + unsigned(Rng.nextBelow(Window))));
    // A short back arc from every 16th routine closes a small cycle with
    // the forward arcs.
    if (I >= BackReach && I % 16 == 0)
      Callees.push_back(I - 1 - unsigned(Rng.nextBelow(BackReach)));
    Src += format("fn r%u(d) {\n  var t = %u;\n", I,
                  unsigned(Rng.nextBelow(1000)));
    if (!Callees.empty()) {
      Src += "  if (d > 0) {\n";
      for (unsigned C : Callees)
        Src += format("    t = t + r%u(d - 1);\n", C);
      Src += "  }\n";
    }
    Src += format("  return t %% %s;\n}\n", Mod);
  }
  Src += "fn main() {\n  var t = 0;\n";
  for (unsigned I = 0; I != N; ++I)
    Src += format("  t = (t + r%u(1)) %% %s;\n", I, Mod);
  Src += "  print t;\n  return 0;\n}\n";
  G.Routines = N + 1;
  return G;
}

GeneratedSource e2e::generateContexts(uint64_t Seed, Scale S) {
  SplitMix64 Rng(Seed ^ 0xC0E7E475ull);
  const unsigned Helpers = 16, N = S == Scale::Full ? 1500 : 60;
  const unsigned Fanout = 3, Window = 48, Depth = 2;

  GeneratedSource G;
  std::string &Src = G.Source;
  for (unsigned H = 0; H != Helpers; ++H) {
    Src += format("fn step%u(x) { %s }\n", H, leafBody(Rng).c_str());
    Src += format("fn work%u(n) {\n  var acc = 0;\n  var i = 0;\n"
                  "  while (i < n) { acc = acc + step%u(i); i = i + 1; }\n"
                  "  return acc %% %s;\n}\n",
                  H, H, Mod);
  }
  // Every routine calls one shared helper either cheaply (small n) or
  // costly (large n), so a helper's cost depends on the calling context
  // and the §6 averaging assumption fails; the forward call graph makes
  // many distinct paths to each helper.
  for (unsigned I = 0; I != N; ++I) {
    unsigned Arg = I % 2 ? 30 : 2;
    Src += format("fn c%u(d) {\n  var t = work%u(%u);\n", I,
                  unsigned(Rng.nextBelow(Helpers)), Arg);
    if (I + 1 < N) {
      Src += "  if (d > 0) {\n";
      for (unsigned K = 0; K != Fanout; ++K)
        Src += format("    t = t + c%u(d - 1);\n",
                      std::min<unsigned>(N - 1,
                                         I + 1 + unsigned(Rng.nextBelow(
                                                     Window))));
      Src += "  }\n";
    }
    Src += format("  return t %% %s;\n}\n", Mod);
  }
  Src += "fn main() {\n  var t = 0;\n";
  for (unsigned I = 0; I != N; ++I)
    Src += format("  t = (t + c%u(%u)) %% %s;\n", I, Depth, Mod);
  Src += "  print t;\n  return 0;\n}\n";
  G.Routines = 2 * Helpers + N + 1;
  return G;
}

GeneratedSource e2e::generateIngestImage(uint64_t Seed, Scale S) {
  SplitMix64 Rng(Seed ^ 0x1A6E57ull);
  const unsigned N = S == Scale::Full ? 200 : 40;
  const unsigned Loops = S == Scale::Full ? 8 : 10;

  GeneratedSource G;
  std::string &Src = G.Source;
  for (unsigned I = 0; I != N; ++I) {
    Src += format("fn f%u(x, d) {\n  var t = x;\n  if (d > 0) {\n", I);
    unsigned Fanout = I + 1 < N ? 2 : 0;
    for (unsigned K = 0; K != Fanout; ++K)
      Src += format("    t = t + f%u(x + %u, d - 1);\n",
                    std::min<unsigned>(N - 1,
                                       I + 1 + unsigned(Rng.nextBelow(6))),
                    K);
    Src += format("  }\n  return t %% %s;\n}\n", Mod);
  }
  Src += format("fn main() {\n  var t = 0;\n  var i = 0;\n"
                "  while (i < %u) {\n",
                Loops);
  for (unsigned I = 0; I != N; I += 4)
    Src += format("    t = (t + f%u(i, 3)) %% %s;\n", I, Mod);
  Src += "    i = i + 1;\n  }\n  print t;\n  return 0;\n}\n";
  G.Routines = N + 1;
  return G;
}
