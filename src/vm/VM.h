//===- vm/VM.h - The TL bytecode interpreter with a virtual clock --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes TL images deterministically.  The VM plays two roles from the
/// paper's environment:
///
///  - the *machine*: a flat-addressed code segment, a call stack whose
///    frames hold return addresses (so the monitoring routine can discover
///    the caller's call site, §3.1), and a cycle clock advanced by each
///    instruction's cost;
///  - the *kernel clock*: every CyclesPerTick cycles the VM delivers a
///    clock tick carrying the current PC to the attached hooks — the
///    equivalent of the histogram sampling "at the end of each clock tick
///    (1/60th of a second) in which a program runs" (§3.2), but exactly
///    uniform and reproducible.
///
/// Profiling hooks are "late bound" exactly as the retrospective marvels:
/// swapping in a different ProfileHooks implementation changes the whole
/// profiler without touching the compiler or the program.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_VM_VM_H
#define GPROF_VM_VM_H

#include "support/Error.h"
#include "vm/Image.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {

/// Receives profiling events from the VM: the mcount arc (onCall), the
/// clock tick (onTick) and the matching return (onReturn).  These three
/// events are all a profiler gets; a calling-context recorder
/// (runtime/CctRecorder) rebuilds the active call chain from them.
class ProfileHooks {
public:
  virtual ~ProfileHooks();

  /// An Mcount prologue executed in the function entered at \p SelfPc; the
  /// caller's call site (the return address in the new frame) is
  /// \p FromPc.  FromPc may lie outside the code segment for spontaneous
  /// activations (e.g. main's synthetic caller).
  virtual void onCall(Address FromPc, Address SelfPc) = 0;

  /// A virtual clock tick elapsed while the instruction at \p Pc was
  /// executing.
  virtual void onTick(Address Pc) = 0;

  /// A profiled function (one whose prologue ran Mcount) returned; \p
  /// SelfPc is its entry address.  Fired *after* any ticks elapsed on the
  /// ret instruction are delivered, so a sample landing on the ret is
  /// attributed to the returning routine by both the histogram and a
  /// context recorder — the ordering the CCT/flat-profile equivalence
  /// invariant depends on (docs/RUNTIME_MT.md).  Default: ignored.
  virtual void onReturn(Address SelfPc);
};

/// Execution limits and clock configuration.
struct VMOptions {
  /// Virtual cycles per clock tick.  With the default cost table this
  /// stands in for the paper's 60 Hz line clock; lower values sample more
  /// finely (and cost more, see bench E4/E6).
  uint64_t CyclesPerTick = 10000;
  /// Abort with an error if the program runs longer than this many cycles.
  uint64_t MaxCycles = 2'000'000'000'000ULL;
  /// Abort with an error on call chains deeper than this.
  uint32_t MaxCallDepth = 1u << 20;
  /// Words of flat data memory addressable through peek/poke.
  uint32_t MemoryWords = 1u << 16;
};

/// The observable outcome of one execution.
struct RunResult {
  int64_t ExitValue = 0;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Ticks = 0;
  std::vector<int64_t> Printed;
};

/// Interpreter for one loaded Image.  Global variable state persists
/// across call() invocations (and is re-initialized by run()), so a
/// long-lived "kernel" can be driven call by call while profiling is
/// switched on and off around it.
class VM {
public:
  explicit VM(const Image &Img, VMOptions Opts = VMOptions());

  /// Attaches (or detaches, with nullptr) profiling hooks.
  void setHooks(ProfileHooks *H) { Hooks = H; }

  /// Resets globals and runs 'main' to completion.
  Expected<RunResult> run();

  /// Calls function \p Name with \p Args using current global state.
  Expected<RunResult> call(const std::string &Name,
                           const std::vector<int64_t> &Args);

  /// Re-initializes global variables from the image.
  void resetGlobals();

  /// Zeroes the peek/poke data memory (run() also does this).
  void resetMemory();

  /// Total cycles executed since construction (monotonic across calls).
  uint64_t totalCycles() const { return Cycles; }

private:
  struct Frame {
    Address ReturnAddr;
    size_t LocalBase;
    size_t StackBase;
    const FuncInfo *Func;
  };

  Expected<RunResult> execute(const FuncInfo &Entry,
                              const std::vector<int64_t> &Args);
  Error trap(Address Pc, const std::string &Message) const;

  uint16_t readU16(Address Pc) const;
  uint64_t readU64(Address Pc) const;
  int64_t readI64(Address Pc) const;

  const Image &Img;
  VMOptions Opts;
  ProfileHooks *Hooks = nullptr;

  std::vector<int64_t> Globals;
  std::vector<int64_t> Memory;
  std::vector<int64_t> Stack;
  std::vector<int64_t> Locals;
  std::vector<Frame> Frames;

  uint64_t Cycles = 0;
  uint64_t NextTickAt = 0;
  uint64_t Ticks = 0;
};

} // namespace gprof

#endif // GPROF_VM_VM_H
