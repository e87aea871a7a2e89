//===- gmon/ProfileData.h - Condensed profile data for one (or more) runs ===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory form of the data the monitoring run condenses to a file at
/// program exit (paper §3.2): the arc table — "the source and destination
/// addresses of the arc and the count of the number of times the arc was
/// traversed" — and the PC sample histogram.  mergeProfiles implements
/// multi-run summing: "the profile data for several executions of a
/// program can be combined by the post-processing to provide a profile of
/// many executions" (§3).
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_GMON_PROFILEDATA_H
#define GPROF_GMON_PROFILEDATA_H

#include "gmon/Histogram.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {

class ThreadPool;

/// One condensed call-graph arc: a call site (the "from" PC, inside the
/// caller), the callee's entry address, and a traversal count.
struct ArcRecord {
  Address FromPc = 0; ///< Address of the call site, inside the caller.
  Address SelfPc = 0; ///< Entry address of the callee.
  uint64_t Count = 0; ///< Traversals observed.
};

/// Parent index of a depth-1 context-tree node (a routine entered from
/// outside any recorded context — typically the program entry).
inline constexpr uint32_t CctRootParent = 0xffffffffu;

/// One node of the calling-context tree: the routine entered at SelfPc,
/// called from the site FromPc, within the calling context identified by
/// the Parent node.  Where an arc record aggregates all traversals of a
/// (site, callee) pair, a context node keeps one counter per *path* from
/// the root — the ground truth that the paper's §6 propagation
/// approximates ("all calls to a routine cost the same").
///
/// In canonical form (canonicalizeContexts) the vector is a preorder
/// serialization: every node's Parent index is strictly less than its own
/// index (or CctRootParent), siblings are merged per (FromPc, SelfPc) key
/// and ordered by that key.
struct CctNode {
  uint32_t Parent = CctRootParent; ///< Index of the calling context.
  Address FromPc = 0;  ///< Call site inside the parent routine.
  Address SelfPc = 0;  ///< Entry address of the routine this context runs.
  uint64_t Calls = 0;  ///< Times this exact context was entered.
  uint64_t Ticks = 0;  ///< Samples landing while this context was innermost.
};

/// The complete condensed output of one or more profiled executions.
struct ProfileData {
  /// PC-sample histogram over the profiled text range.
  Histogram Hist;
  /// Arc table, one record per distinct (call site, callee) pair.
  std::vector<ArcRecord> Arcs;
  /// Sampling rate: clock ticks per second of program time.  Each sample
  /// accounts for 1/TicksPerSecond seconds.
  uint64_t TicksPerSecond = 60;
  /// Number of executions summed into this data (1 for a single run).
  uint32_t RunCount = 1;
  /// True if the runtime arc table overflowed during any contributing run
  /// (mcount's "tos overflow"): arc counts are then lower bounds.
  bool ArcTableOverflowed = false;
  /// Calling-context tree in canonical preorder (empty when contexts were
  /// not recorded).  Collapsing it per (FromPc, SelfPc) reproduces Arcs
  /// exactly; summing Ticks per routine reproduces the histogram's
  /// per-routine sample totals (the CCT metamorphic invariant,
  /// tests/metamorphic_test.cpp).
  std::vector<CctNode> Contexts;
  /// True if the runtime context-tree recorder hit its node cap in any
  /// contributing run: context counts are then lower bounds (dropped
  /// paths attribute to their nearest recorded ancestor).
  bool ContextTreeOverflowed = false;

  /// Seconds of profiled execution represented by the histogram.
  double sampledSeconds() const {
    if (TicksPerSecond == 0)
      return 0.0;
    return static_cast<double>(Hist.totalSamples()) /
           static_cast<double>(TicksPerSecond);
  }

  /// Appends one record of \p Count traversals for (FromPc, SelfPc).
  /// Several records may share a key; canonicalizeArcs (or a merge)
  /// coalesces them.
  void addArc(Address FromPc, Address SelfPc, uint64_t Count) {
    Arcs.push_back({FromPc, SelfPc, Count});
  }

  /// Sums \p Other into this profile through mergeProfiles, so the result
  /// is canonical and fails exactly where mergeProfiles does.
  Error merge(const ProfileData &Other);

  /// Puts Arcs into canonical form: duplicate (FromPc, SelfPc) records
  /// are coalesced (saturating) and the table is sorted by (FromPc,
  /// SelfPc).  Two profiles holding the same logical arc multiset then
  /// serialize to identical bytes regardless of the order their arcs
  /// were discovered in — the property Monitor::extract() relies on to
  /// make a merged multi-thread snapshot byte-identical to a
  /// single-thread run of the same call sequence (docs/RUNTIME_MT.md).
  /// Clamped adds are tallied on the "gmon.arcs.saturated" gauge.
  void canonicalizeArcs();

  /// Folds another context tree into Contexts: paths present in both
  /// trees coalesce into one node with summed (saturating) counters, and
  /// the result is re-emitted in canonical preorder.  \p Nodes must
  /// satisfy the structural invariant Parent < index (the form every
  /// recorder snapshot and every successful gmon read provides).
  void addContextTree(const std::vector<CctNode> &Nodes);

  /// Puts Contexts into canonical form: duplicate sibling (FromPc,
  /// SelfPc) nodes are coalesced (saturating) and the tree is re-emitted
  /// in preorder with siblings ordered by (FromPc, SelfPc) — the
  /// context-tree analogue of canonicalizeArcs, and the property that
  /// makes a merged multi-thread CCT snapshot byte-identical to a
  /// single-thread run of the same logical call sequence.
  void canonicalizeContexts();
};

/// True if \p Data's arc table is in canonical form (canonicalizeArcs):
/// strictly ascending (FromPc, SelfPc), so no key repeats.
bool isCanonicalProfile(const ProfileData &Data);

/// Checks that \p A and \p B may be summed (same sampling rate, same
/// histogram geometry; an empty histogram is compatible with any geometry).
/// \p NameA / \p NameB label the two sides in the error message (file
/// paths, digests, ...).
Error checkMergeCompatible(const ProfileData &A, const ProfileData &B,
                           const std::string &NameA, const std::string &NameB);

/// Sums \p Profiles into one canonical profile — the only summing path:
/// gprof -s, ProfileData::merge, the store's aggregates and its
/// compaction all come here.  Every profile is checked against the first
/// sampled one with checkMergeCompatible, labelled by \p Names (when
/// given, one per profile) or by position.  Arc tables are k-way merged
/// with a heap (a non-canonical table is canonicalized on the way in),
/// histograms add with Histogram::merge, context trees fold into one
/// canonical tree, run counts add and the overflow flags OR.
///
/// With a \p Pool of several workers and at least four profiles, the list
/// is cut into one contiguous chunk per worker, each chunk merges
/// concurrently, and the partial sums merge on the calling thread.  Every
/// combining operation is exact integer arithmetic (saturating adds are
/// min(true sum, max) for any grouping) and the output order is canonical,
/// so the bytes are identical for any pool width and any input order.  No
/// pointer may be null.
Expected<ProfileData>
mergeProfiles(const std::vector<const ProfileData *> &Profiles,
              ThreadPool *Pool = nullptr,
              const std::vector<std::string> *Names = nullptr);

/// Same contract over a contiguous vector.
Expected<ProfileData>
mergeProfiles(const std::vector<ProfileData> &Profiles,
              ThreadPool *Pool = nullptr,
              const std::vector<std::string> *Names = nullptr);

} // namespace gprof

#endif // GPROF_GMON_PROFILEDATA_H
