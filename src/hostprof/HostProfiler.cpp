//===- hostprof/HostProfiler.cpp -------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "hostprof/HostProfiler.h"

#include "runtime/ArcTable.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include <cxxabi.h>
#include <dlfcn.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#define NO_INSTRUMENT __attribute__((no_instrument_function))

using namespace gprof;

namespace {

/// Global collector state.  The SIGPROF handler touches only Hist*,
/// HistLow, HistBucket and HistSlots, all fixed after start() — making the
/// handler async-signal-safe.
struct CollectorState {
  std::atomic<bool> Running{false};
  bool ArcsEnabled = false;
  host::HostProfilerOptions Opts;

  OpenAddressingArcTable Arcs{1 << 14};
  /// Reentrancy guard for the enter hook.
  bool InHook = false;

  /// Preallocated histogram over the main executable's text segment.
  std::vector<uint64_t> HistCounts;
  Address HistLow = 0;
  Address HistHigh = 0;
  std::atomic<uint64_t> OutOfRangeSamples{0};
};

NO_INSTRUMENT CollectorState &state() {
  static CollectorState S;
  return S;
}

/// Finds the main executable's executable-mapped range via
/// /proc/self/maps.
NO_INSTRUMENT bool findTextRange(Address &Low, Address &High) {
  std::FILE *F = std::fopen("/proc/self/maps", "r");
  if (!F)
    return false;
  char ExePath[4096] = {0};
  ssize_t N = ::readlink("/proc/self/exe", ExePath, sizeof(ExePath) - 1);
  if (N <= 0) {
    std::fclose(F);
    return false;
  }
  ExePath[N] = '\0';

  bool Found = false;
  char Line[4352];
  while (std::fgets(Line, sizeof(Line), F)) {
    unsigned long long Lo, Hi;
    char Perms[8] = {0};
    char Path[4096] = {0};
    int Fields = std::sscanf(Line, "%llx-%llx %7s %*s %*s %*s %4095s", &Lo,
                             &Hi, Perms, Path);
    if (Fields < 4)
      continue;
    if (std::strcmp(Path, ExePath) != 0)
      continue;
    if (std::strchr(Perms, 'x') == nullptr)
      continue;
    if (!Found) {
      Low = Lo;
      High = Hi;
      Found = true;
    } else {
      Low = std::min<Address>(Low, Lo);
      High = std::max<Address>(High, Hi);
    }
  }
  std::fclose(F);
  return Found;
}

NO_INSTRUMENT void sigprofHandler(int /*Sig*/, siginfo_t * /*Info*/,
                                  void *Ctx) {
  CollectorState &S = state();
  if (!S.Running.load(std::memory_order_relaxed))
    return;
  auto *UC = static_cast<ucontext_t *>(Ctx);
#if defined(__x86_64__)
  Address Pc = static_cast<Address>(UC->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  Address Pc = static_cast<Address>(UC->uc_mcontext.pc);
#else
  Address Pc = 0;
  (void)UC;
#endif
  if (Pc >= S.HistLow && Pc < S.HistHigh && !S.HistCounts.empty()) {
    size_t Idx =
        static_cast<size_t>((Pc - S.HistLow) / S.Opts.BucketBytes);
    if (Idx < S.HistCounts.size())
      ++S.HistCounts[Idx];
  } else {
    S.OutOfRangeSamples.fetch_add(1, std::memory_order_relaxed);
  }
}

NO_INSTRUMENT std::string demangle(const char *Name) {
  int Status = 0;
  char *Demangled = abi::__cxa_demangle(Name, nullptr, nullptr, &Status);
  if (Status == 0 && Demangled) {
    std::string Out(Demangled);
    std::free(Demangled);
    return Out;
  }
  std::free(Demangled);
  return Name;
}

} // namespace

//===----------------------------------------------------------------------===//
// The instrumentation hooks (C linkage, required names).
//===----------------------------------------------------------------------===//

extern "C" {

NO_INSTRUMENT void __cyg_profile_func_enter(void *Fn, void *CallSite) {
  CollectorState &S = state();
  if (!S.ArcsEnabled || S.InHook)
    return;
  S.InHook = true;
  S.Arcs.record(reinterpret_cast<Address>(CallSite),
                reinterpret_cast<Address>(Fn));
  S.InHook = false;
}

NO_INSTRUMENT void __cyg_profile_func_exit(void * /*Fn*/,
                                           void * /*CallSite*/) {
  // gprof's scheme needs only the entry event; exits are ignored.
}

} // extern "C"

//===----------------------------------------------------------------------===//
// Control interface
//===----------------------------------------------------------------------===//

Error host::start(const HostProfilerOptions &Opts) {
  CollectorState &S = state();
  if (S.Running.load())
    return Error::success();
  S.Opts = Opts;

  if (Opts.SampleHistogram) {
    if (!findTextRange(S.HistLow, S.HistHigh))
      return Error::failure(
          "cannot determine the executable's text range from "
          "/proc/self/maps");
    size_t Buckets = static_cast<size_t>(
        (S.HistHigh - S.HistLow + Opts.BucketBytes - 1) / Opts.BucketBytes);
    S.HistCounts.assign(Buckets, 0);

    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_sigaction = sigprofHandler;
    SA.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&SA.sa_mask);
    if (sigaction(SIGPROF, &SA, nullptr) != 0)
      return Error::failure("sigaction(SIGPROF) failed");

    itimerval Timer;
    Timer.it_interval.tv_sec =
        static_cast<time_t>(Opts.SampleMicros / 1000000);
    Timer.it_interval.tv_usec =
        static_cast<suseconds_t>(Opts.SampleMicros % 1000000);
    Timer.it_value = Timer.it_interval;
    if (setitimer(ITIMER_PROF, &Timer, nullptr) != 0)
      return Error::failure("setitimer(ITIMER_PROF) failed");
  }

  S.ArcsEnabled = true;
  S.Running.store(true);
  return Error::success();
}

void host::stop() {
  CollectorState &S = state();
  if (!S.Running.load())
    return;
  S.Running.store(false);
  S.ArcsEnabled = false;
  itimerval Timer;
  std::memset(&Timer, 0, sizeof(Timer));
  setitimer(ITIMER_PROF, &Timer, nullptr);
}

bool host::isRunning() { return state().Running.load(); }

void host::reset() {
  CollectorState &S = state();
  S.Arcs.reset();
  std::fill(S.HistCounts.begin(), S.HistCounts.end(), 0);
  S.OutOfRangeSamples.store(0);
}

ProfileData host::extract() {
  CollectorState &S = state();
  ProfileData Data;
  Data.TicksPerSecond =
      S.Opts.SampleMicros == 0 ? 1 : 1000000 / S.Opts.SampleMicros;
  Data.Arcs = S.Arcs.snapshot();
  if (!S.HistCounts.empty()) {
    Histogram H(S.HistLow, S.HistHigh, S.Opts.BucketBytes);
    for (size_t I = 0; I != S.HistCounts.size() && I != H.numBuckets(); ++I)
      H.setBucketCount(I, S.HistCounts[I]);
    Data.Hist = std::move(H);
  }
  return Data;
}

SymbolTable host::symbolize(const ProfileData &Data) {
  // Collect candidate function entry addresses: arc destinations resolve
  // through dladdr to symbol base addresses.
  std::map<Address, std::string> Entries;
  auto AddAddr = [&Entries](Address A) {
    if (A == 0 || Entries.count(A))
      return;
    Dl_info Info;
    // Accept a resolved symbol only if its base is plausibly the entry of
    // the function containing A; dladdr can otherwise report a distant
    // preceding exported symbol, which would mislabel everything after it.
    if (dladdr(reinterpret_cast<void *>(A), &Info) != 0 &&
        Info.dli_saddr &&
        A - reinterpret_cast<Address>(Info.dli_saddr) < (1u << 20)) {
      Address Base = reinterpret_cast<Address>(Info.dli_saddr);
      std::string Name = Info.dli_sname
                             ? demangle(Info.dli_sname)
                             : format("0x%llx",
                                      static_cast<unsigned long long>(Base));
      Entries.emplace(Base, std::move(Name));
    } else {
      Entries.emplace(
          A, format("0x%llx", static_cast<unsigned long long>(A)));
    }
  };
  for (const ArcRecord &R : Data.Arcs) {
    AddAddr(R.SelfPc);
    AddAddr(R.FromPc);
  }

  SymbolTable Table;
  Address NextStart = 0;
  // Walk backwards so each symbol's size is bounded by its successor.
  for (auto It = Entries.rbegin(); It != Entries.rend(); ++It) {
    uint64_t Size =
        NextStart > It->first ? NextStart - It->first : 4096;
    Size = std::min<uint64_t>(Size, 1 << 20);
    Table.addSymbol(It->second, It->first, Size);
    NextStart = It->first;
  }
  cantFail(Table.finalize());
  return Table;
}
