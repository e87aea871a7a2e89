//===- store/MergeEngine.h - Deterministic parallel profile merging ------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregation engine behind the profile store: merges any number of
/// gmon shards with a k-way merge tree that parallelizes across a
/// ThreadPool.  The paper's multi-run summing ("the profile data for
/// several executions ... can be combined") was a linear fold over a
/// handful of files; at thousands of shards that fold is quadratic in the
/// arc table (ProfileData::addArc scans linearly) and serial.  Here every
/// shard's arc table is first put in canonical (FromPc, SelfPc) order, so
/// M shards merge in O(total·log M) with a heap, and contiguous chunks of
/// shards merge on separate workers.
///
/// Determinism is a hard requirement: the merged bytes must be identical
/// for any thread count and any shard order, so cached aggregates keyed by
/// the shard-digest set stay valid no matter how they were produced.  That
/// holds because every combining operation is exact integer arithmetic
/// (saturating bucket and arc-count adds, run-count adds, flag OR — all
/// commutative and associative: a saturating sum is min(true sum, max) for
/// any grouping) and the output arc table is emitted in canonical order.
/// No floating-point reduction ever runs here.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_STORE_MERGEENGINE_H
#define GPROF_STORE_MERGEENGINE_H

#include "gmon/ProfileData.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <vector>

namespace gprof {

/// True if \p Data's arc table is in canonical form
/// (ProfileData::canonicalizeArcs): what the store serializes, digests,
/// and feeds to the k-way merge.
bool isCanonicalProfile(const ProfileData &Data);

/// Checks that \p A and \p B may be summed (same sampling rate, same
/// histogram geometry; an empty histogram is compatible with any geometry).
/// \p NameA / \p NameB label the two sides in the error message (file
/// paths, digests, ...).
Error checkMergeCompatible(const ProfileData &A, const ProfileData &B,
                           const std::string &NameA, const std::string &NameB);

/// Merges \p Shards — all canonical and mutually compatible — into one
/// canonical profile.  With a \p Pool the shard list is cut into one
/// contiguous chunk per worker, each chunk is k-way merged concurrently,
/// and the partial results are k-way merged on the calling thread; without
/// one (or with a single worker) the whole list merges in one pass.  The
/// result is byte-identical either way.
Expected<ProfileData> mergeProfiles(const std::vector<ProfileData> &Shards,
                                    ThreadPool *Pool = nullptr);

/// The core entry point: same contract over borrowed profiles, so callers
/// holding shards in non-contiguous storage (the tiered store mixes
/// compacted runs and loose shards) merge without gathering values into
/// one vector.  No pointer may be null.
Expected<ProfileData>
mergeProfiles(const std::vector<const ProfileData *> &Shards,
              ThreadPool *Pool = nullptr);

} // namespace gprof

#endif // GPROF_STORE_MERGEENGINE_H
