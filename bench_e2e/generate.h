//===- bench_e2e/generate.h - Seeded TL program generators ----------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark runs is a TL program generated from the
/// workload seed.  Each generator returns source text only; compiling,
/// running and profiling it is the measured system's job.
///
//===----------------------------------------------------------------------===//
#ifndef GPROF_BENCH_E2E_GENERATE_H
#define GPROF_BENCH_E2E_GENERATE_H

#include <cstdint>
#include <string>

namespace gprof {
namespace e2e {

/// Input size: Full for measurement, Short for the benchmark's own tests.
enum class Scale { Full, Short };

struct GeneratedSource {
  std::string Source;
  uint32_t Routines = 0; ///< Functions defined, main included.
};

/// A call-dense program with a few dozen routines: tiny leaves, a mutually
/// recursive pair (one cycle) and one indirect call site reaching several
/// callees, driven by a long loop in main.
GeneratedSource generateCalls(uint64_t Seed, Scale S);

/// Thousands of routines on a random call graph: mostly forward arcs with
/// rare short back arcs, so there are small cycles; each routine runs a
/// few times, so the run is short and the profile is wide.
GeneratedSource generateWide(uint64_t Seed, Scale S);

/// Context-dependent callee cost (examples/tl/contexts.tl scaled up):
/// shared helpers whose cost depends on the argument, reached from many
/// call paths that pick different arguments.
GeneratedSource generateContexts(uint64_t Seed, Scale S);

/// The small program whose runs are captured as ingest shards.
GeneratedSource generateIngestImage(uint64_t Seed, Scale S);

} // namespace e2e
} // namespace gprof

#endif // GPROF_BENCH_E2E_GENERATE_H
