//===- runtime/Monitor.h - The profiling monitor and its control API ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of the profiler (paper §3): "The first part allocates
/// and initializes the runtime monitoring data structures before the
/// program begins execution [monstartup].  The second part is the
/// monitoring routine invoked from the prologue of each profiled routine
/// [record]. The third part condenses the data structures and writes them
/// to a file as the program terminates [finish]."
///
/// Monitor also exposes the retrospective's kernel-profiling control
/// interface: "The programmer's interface allowed us to turn the profiler
/// on and off, extract the profiling data, and reset the data" — so a
/// long-running process can be profiled in slices without going down.
///
/// Thread model (docs/RUNTIME_MT.md): one Monitor may be shared by any
/// number of profiled threads.  Each thread owns a private ThreadState —
/// its own ArcRecorder and Histogram with plain non-atomic counters —
/// created lazily on the thread's first event and found again through a
/// thread-local cache, so the record() hot path stays exactly as cheap as
/// the paper demands ("access to it must be as fast as possible") with no
/// locks and no atomic read-modify-writes.  Only registration (once per
/// thread) and the snapshot/reset/telemetry paths take the registry
/// mutex.  extract() appends every per-thread table and canonicalizes the
/// result, so the merged snapshot is byte-identical to a single-thread run
/// of the same logical call sequence.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_RUNTIME_MONITOR_H
#define GPROF_RUNTIME_MONITOR_H

#include "gmon/ProfileData.h"
#include "runtime/ArcTable.h"
#include "runtime/CctRecorder.h"
#include "vm/VM.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gprof {

/// Which arc table implementation the monitor uses.
enum class ArcTableKind { Bsd, OpenAddressing, StdMap };

/// Monitor configuration.
struct MonitorOptions {
  /// Histogram bucket granularity in code addresses.  1 gives the
  /// retrospective's one-to-one PC↔bucket mapping; larger values give "a
  /// finer or coarser histogram" trading space for precision.
  uint64_t HistBucketSize = 1;
  /// Clock ticks per second of program time; pairs with the VM's
  /// CyclesPerTick to convert samples to seconds.
  uint64_t TicksPerSecond = 60;
  /// Arc table selection and sizing.  TosLimit bounds each *thread's*
  /// table: a per-thread budget, matching the per-thread ownership of the
  /// recorders themselves.
  ArcTableKind TableKind = ArcTableKind::Bsd;
  uint32_t FromsDensity = 1;
  uint32_t TosLimit = 1u << 20;
  /// Individual halves of the profiler can be disabled (bench E4 measures
  /// histogram-only vs full profiling overhead).
  bool RecordArcs = true;
  bool SampleHistogram = true;
  /// Opt-in calling-context-tree recording (tlrun --contexts): each
  /// thread additionally grows a CctRecorder fed by onCall/onReturn/
  /// onTick, and extract() carries the merged tree in
  /// ProfileData::Contexts.  Off by default — the CCT costs a shadow
  /// stack push/pop per call, which bench_tab_mcount_cost prices.
  bool RecordContexts = false;
  /// Per-thread context-node budget, like TosLimit for the arc tables.
  uint32_t CctNodeLimit = 1u << 20;
};

/// The profiling monitor.  Attach to a VM with VM::setHooks(&Monitor);
/// attach to several VMs on several threads to profile a concurrent
/// program — each thread's events land in that thread's private tables.
class Monitor : public ProfileHooks {
public:
  /// monstartup: sizes the data structures for text range
  /// [LowPc, HighPc).
  Monitor(Address LowPc, Address HighPc,
          MonitorOptions Opts = MonitorOptions());
  ~Monitor() override;

  // ProfileHooks implementation (the monitoring routine proper).  Safe to
  // call concurrently from any number of threads.
  void onCall(Address FromPc, Address SelfPc) override;
  void onTick(Address Pc) override;
  void onReturn(Address SelfPc) override;

  /// moncontrol: starts or stops data gathering on every registered (and
  /// future) thread.  While stopped, profiled routines still execute
  /// their prologue call but nothing is recorded (matching moncontrol(0)
  /// semantics: profiling off, program running).  The flag is a single
  /// atomic consulted by each thread on each event: a toggle made by a
  /// profiled thread takes effect on that thread immediately; a toggle
  /// made from outside reaches other threads at their next event (with
  /// external synchronization — e.g. the join before a snapshot —
  /// providing exactness when it matters).
  void control(bool Run) { Running.store(Run, std::memory_order_seq_cst); }
  bool isRunning() const {
    return Running.load(std::memory_order_relaxed);
  }

  /// Zeroes every registered thread's arc table and histogram (kernel
  /// interface "reset").  Threads stay registered and their recorders
  /// stay valid, so concurrent thread-local caches never dangle.  Call
  /// with profiled threads quiescent (joined, or paused with a
  /// happens-before edge) for an exact cut.
  void reset();

  /// Snapshots the current data without disturbing collection (kernel
  /// interface "extract"): appends every per-thread arc table, sums the
  /// per-thread histograms, and canonicalizes the arcs (coalescing the
  /// records that several threads hold for one arc).  No stop-the-world: threads keep recording
  /// into their own tables and new threads may register while the fold
  /// runs.  For an exact (and race-free) snapshot the profiled threads
  /// must be quiescent, as with reset().
  ProfileData extract() const;

  /// Condenses the final data, as done "as the profiled program exits".
  /// The monitor keeps collecting if execution continues afterwards.
  ProfileData finish() const { return extract(); }

  /// True if any thread's arc table overflowed and dropped arcs.
  bool arcTableOverflowed() const;

  /// True if any thread's context tree hit its node cap and dropped
  /// contexts (always false when RecordContexts is off).
  bool contextTreeOverflowed() const;

  /// Field-wise sum of every registered thread's context-tree statistics
  /// (all zero when RecordContexts is off).
  CctStats cctStats() const;

  /// Field-wise sum of every registered thread's arc-table statistics.
  /// Summing uint64 counters is commutative, so the result is
  /// deterministic whatever order threads registered in.
  ArcTableStats arcTableStats() const;

  /// Per-thread arc-table statistics in registration order (diagnostic;
  /// registration order depends on the thread schedule).
  std::vector<ArcTableStats> perThreadArcStats() const;

  /// Number of threads that have recorded at least one event.
  size_t registeredThreads() const;

  /// Publishes the runtime's counters — mcount probes/collisions/
  /// move-to-front hits, arc-table occupancy, histogram ticks, all summed
  /// across registered threads — to the process-wide telemetry registry
  /// under "runtime.*", plus "runtime.threads.registered" (the
  /// GPROF_TELEMETRY surface; see docs/TELEMETRY.md).
  void publishTelemetry() const;

  const MonitorOptions &options() const { return Opts; }

private:
  /// One thread's private slice of the data-gathering state.  Everything
  /// inside is owned exclusively by its thread between registration and
  /// the quiescent point before a snapshot; no member is atomic.
  struct ThreadState {
    std::unique_ptr<ArcRecorder> Arcs;
    /// Empty (no buckets allocated) unless Opts.SampleHistogram.
    Histogram Hist;
    uint64_t HistTicks = 0; ///< onTick deliveries recorded (exact).
    /// Calling-context tree, present only when Opts.RecordContexts.
    std::unique_ptr<CctRecorder> Cct;
  };

  std::unique_ptr<ArcRecorder> makeTable() const;

  /// Fast path: the calling thread's state via the thread-local cache.
  ThreadState &self();
  /// Slow path: registry lookup / creation under the mutex.
  ThreadState &registerThisThread();

  Address LowPc;
  Address HighPc;
  MonitorOptions Opts;
  /// Identifies this Monitor in the thread-local caches.  Allocated from
  /// a process-wide counter and never reused, so a cache entry from a
  /// destroyed Monitor can never alias a live one.
  const uint64_t MonitorId;
  std::atomic<bool> Running{true};

  /// Registry of per-thread states.  The mutex guards the containers
  /// only; the states' contents belong to their threads.
  mutable std::mutex RegistryMutex;
  std::vector<std::unique_ptr<ThreadState>> Threads;
  std::map<std::thread::id, ThreadState *> ByThread;

  static thread_local uint64_t CachedMonitorId;
  static thread_local ThreadState *CachedState;
};

} // namespace gprof

#endif // GPROF_RUNTIME_MONITOR_H
