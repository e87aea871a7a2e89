//===- tests/hostprof_test.cpp - Tests for the native profiling runtime ---===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// This test binary is NOT compiled with -finstrument-functions; it
/// exercises the hostprof runtime by invoking the instrumentation hooks
/// directly (the compiler would emit exactly these calls) and by running
/// the control interface end to end, including SIGPROF sampling.
///
//===----------------------------------------------------------------------===//

#include "hostprof/HostProfiler.h"

#include "gmon/GmonFile.h"

#include <gtest/gtest.h>

extern "C" {
void __cyg_profile_func_enter(void *Fn, void *CallSite);
void __cyg_profile_func_exit(void *Fn, void *CallSite);
}

using namespace gprof;

namespace {

/// Spins real CPU so ITIMER_PROF has something to sample.
uint64_t burnCpu(uint64_t Iterations) {
  volatile uint64_t X = 0x12345;
  for (uint64_t I = 0; I != Iterations; ++I) {
    X = X ^ (X >> 13);
    X = X * 0x9e3779b97f4a7c15ULL;
  }
  return X;
}

/// Total traversals recorded into the callee at \p SelfPc.
uint64_t callsInto(const ProfileData &D, Address SelfPc) {
  uint64_t Total = 0;
  for (const ArcRecord &R : D.Arcs)
    if (R.SelfPc == SelfPc)
      Total = saturatingAdd(Total, R.Count);
  return Total;
}

} // namespace

TEST(HostProfilerTest, HooksAreNoOpsWhileStopped) {
  ASSERT_FALSE(host::isRunning());
  __cyg_profile_func_enter(reinterpret_cast<void *>(0x1234),
                           reinterpret_cast<void *>(0x5678));
  ProfileData D = host::extract();
  EXPECT_TRUE(D.Arcs.empty());
}

TEST(HostProfilerTest, StartCollectStopDump) {
  host::HostProfilerOptions Opts;
  Opts.SampleMicros = 500;
  Error E = host::start(Opts);
  if (E) {
    // Environments without a parseable /proc/self/maps: fall back.
    (void)E.message();
    host::HostProfilerOptions ArcsOnly;
    ArcsOnly.SampleHistogram = false;
    cantFail(host::start(ArcsOnly));
  }
  ASSERT_TRUE(host::isRunning());

  // Simulate what instrumented prologues would do, with two distinct
  // call sites into the same callee plus one multi-callee site.
  auto Fn1 = reinterpret_cast<void *>(&burnCpu);
  auto Fn2 = reinterpret_cast<void *>(&__cyg_profile_func_exit);
  auto Site1 = reinterpret_cast<void *>(0x111111);
  auto Site2 = reinterpret_cast<void *>(0x222222);
  for (int I = 0; I != 5; ++I)
    __cyg_profile_func_enter(Fn1, Site1);
  for (int I = 0; I != 3; ++I)
    __cyg_profile_func_enter(Fn1, Site2);
  __cyg_profile_func_enter(Fn2, Site1);
  burnCpu(20'000'000); // Give the PROF timer a chance to fire.

  host::stop();
  EXPECT_FALSE(host::isRunning());

  ProfileData D = host::extract();
  ASSERT_EQ(D.Arcs.size(), 3u);
  uint64_t IntoFn1 = callsInto(D, reinterpret_cast<Address>(Fn1));
  EXPECT_EQ(IntoFn1, 8u);
  EXPECT_EQ(callsInto(D, reinterpret_cast<Address>(Fn2)), 1u);

  // The data round-trips through the shared gmon container.
  auto Back = readGmon(writeGmon(D));
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->Arcs.size(), 3u);

  // Stopping again and resetting is harmless.
  host::stop();
  host::reset();
  EXPECT_TRUE(host::extract().Arcs.empty());
}

TEST(HostProfilerTest, SymbolizeProducesValidTable) {
  // Build data whose callees are real function addresses in this process.
  ProfileData D;
  D.addArc(0x1000, reinterpret_cast<Address>(&burnCpu), 4);
  D.addArc(0x2000, reinterpret_cast<Address>(&std::exit), 2);
  SymbolTable Syms = host::symbolize(D);
  EXPECT_GE(Syms.size(), 2u);
  // Every arc destination resolves to some symbol in the table.
  for (const ArcRecord &R : D.Arcs)
    EXPECT_NE(Syms.findContaining(R.SelfPc), NoSymbol);
  // Table is finalized and ordered: lookups behave.
  EXPECT_LE(Syms.lowPc(), Syms.highPc());
}

TEST(HostProfilerTest, SymbolizeUnknownAddressesFallBackToHex) {
  ProfileData D;
  D.addArc(0, 0x10, 1); // Address 0x10 is certainly unmapped.
  SymbolTable Syms = host::symbolize(D);
  uint32_t I = Syms.findContaining(0x10);
  ASSERT_NE(I, NoSymbol);
  EXPECT_EQ(Syms.symbol(I).Name.rfind("0x", 0), 0u);
}
