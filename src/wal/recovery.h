// Crash recovery: scan a shard's segment directory, validate every record
// (length, CRC32C, type, dense LSN continuity), replay the valid prefix
// through a caller-supplied apply function, and truncate the log at the
// first torn or corrupt record so the next writer appends to a clean tail.
//
// The replay target is a callback, not a tree: the wal library stays below
// src/ctree/ in the layering (the server adapts the callback onto
// ConcurrentBTree::Insert/Delete). Determinism comes from the LSN check —
// the redo stream is exactly the per-key serialization order the tree
// produced (records are appended while the leaf latch/version lock is held).
//
// Failure taxonomy:
//   - preallocated tail (the writer sizes each segment up front, so a
//     segment that was not sealed or closed ends in zeros): not damage —
//     the scan stops at the first all-zero frame when everything after it
//     is zero too, trims the file there and reports the bytes in
//     `preallocated_bytes`. A non-last segment may end this way (sealed
//     before its trim was durable); the next segment must then continue
//     the LSN sequence. A newest segment that is all zero, header included
//     (a crash right after it was created), is removed and counted the
//     same way.
//   - torn tail (file ends mid-record, or a record fails its CRC, with any
//     non-zero byte at or after it): normal crash damage — truncate the
//     file there, drop any later segments, and report the byte count in
//     `truncated_bytes`; recovery still succeeds.
//   - corrupt/alien segment header, wrong shard, version or LSN
//     discontinuity *between* segments: not crash damage — recovery fails
//     loudly (`ok == false`) rather than silently dropping committed data.
//
// The scan reads the file in ~1 MiB chunks without readahead and stops at
// the first frame past the written end; it checks the preallocated tail via
// SEEK_DATA/SEEK_HOLE, which skips extents the filesystem reports as holes
// (unwritten, uncached) instead of reading them.

#ifndef CBTREE_WAL_RECOVERY_H_
#define CBTREE_WAL_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "wal/wal_format.h"

namespace cbtree {
namespace wal {

struct RecoveryResult {
  bool ok = true;
  std::string error;        ///< set when !ok
  uint64_t segments = 0;    ///< segment files scanned
  uint64_t records = 0;     ///< records replayed
  uint64_t max_lsn = 0;     ///< highest replayed LSN (0: empty log)
  /// Torn-tail bytes removed: from the first bad frame through the last
  /// frame holding a non-zero byte, plus any orphaned later segments.
  uint64_t truncated_bytes = 0;
  /// Zero preallocated-tail bytes trimmed (not damage).
  uint64_t preallocated_bytes = 0;
};

/// Replays shard `shard`'s log under `dir` through `apply`, in LSN order.
/// `apply` is called once per valid record before the result returns. An
/// empty or missing directory recovers successfully with zero records.
/// The log files are repaired in place (torn tail truncated, orphaned later
/// segments unlinked), so a subsequent ShardLog::Open(start_lsn =
/// max_lsn + 1) continues a clean sequence.
RecoveryResult RecoverShard(const std::string& dir, uint32_t shard,
                            const std::function<void(const WalRecord&)>& apply);

}  // namespace wal
}  // namespace cbtree

#endif  // CBTREE_WAL_RECOVERY_H_
