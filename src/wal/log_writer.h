// Per-shard append-only log with group commit.
//
// Appenders (the server's event loops) serialize records into an in-memory
// buffer under the log mutex and return immediately with their LSN; a
// dedicated log-writer thread cuts the group once its first record has
// waited out a configurable coalescing window (`group_commit_us`), so
// concurrent appends pile into the same group, then writes the whole group
// with one write(2) and makes it durable with at most one fsync — this is
// where the server's same-shard batching pays twice: K commits per fsync
// instead of one. The window runs from the group's first append, not from
// the writer's wake-up, so under load the previous group's barrier and
// release overlap the next group's window instead of preceding it.
//
// Each segment is preallocated to `segment_bytes` when it is opened, so
// group writes land inside the file's size and fdatasync flushes data, not
// a size change, per group. A segment is trimmed to its written length when
// it is sealed (rotation) or closed; after a crash, recovery recognises the
// all-zero preallocated tail and trims it (see recovery.h).
//
// Durability is a single monotone watermark per shard (`durable_lsn`);
// with `--fsync=off` it advances after write(2) (survives a process SIGKILL
// via the page cache, not an OS crash), `data` after fdatasync, `full` after
// fsync. Two ways to wait for it: WaitDurable(lsn) blocks the caller (the
// trees' latch-held §7 retention waits), and WhenDurable(lsn, callback)
// parks a callback that the writer thread runs right after the advance
// covering `lsn` — the server releases its acks this way, so no event loop
// ever sits out a barrier.
//
// All file I/O — open/fallocate/write/fsync/ftruncate/close — happens on
// the writer thread and in Open/Close; tree code must go through
// Append*/WaitDurable/WhenDurable only (the cbtree-wal-append tidy check
// enforces exactly this).

#ifndef CBTREE_WAL_LOG_WRITER_H_
#define CBTREE_WAL_LOG_WRITER_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "btree/node.h"
#include "obs/registry.h"
#include "wal/wal_format.h"

namespace cbtree {
namespace wal {

enum class FsyncMode : uint8_t {
  kOff,   ///< no sync syscall; durable after write(2) reaches the page cache
  kData,  ///< fdatasync(2) per group
  kFull,  ///< fsync(2) per group
};

const char* FsyncModeName(FsyncMode mode);
bool ParseFsyncMode(const std::string& text, FsyncMode* out);

/// The writer's file syscalls, each with the real call's signature and
/// return/errno contract. `sync` is fdatasync(2) or fsync(2) per FsyncMode.
struct WalSyscalls {
  std::function<ssize_t(int fd, const void* data, size_t size)> write;
  std::function<int(int fd)> sync;
  std::function<int(int fd, off_t length)> fallocate;
  std::function<int(int fd, off_t length)> ftruncate;
};

struct WalOptions {
  std::string dir;  ///< shard log directory (created if absent)
  uint32_t shard = 0;
  FsyncMode fsync = FsyncMode::kData;
  /// The longest a record waits for company before its group is cut: the
  /// writer flushes a group `group_commit_us` after the append that opened
  /// it (or as soon as it is free, if the group is already older). 0
  /// flushes as soon as the writer wakes.
  uint32_t group_commit_us = 200;
  /// Segment rotation threshold (bytes of records per segment file).
  uint64_t segment_bytes = 64ull << 20;
  /// First LSN this log assigns (recovery's max replayed LSN + 1).
  uint64_t start_lsn = 1;
  /// Optional instrumentation sink; may be null. Plain-atomic WalStats are
  /// maintained regardless, so the serve report works under CBTREE_OBS=OFF.
  obs::Registry* registry = nullptr;
  /// Test-only: replaces the writer's file syscalls (e.g. to inject short
  /// writes, EINTR, EIO or ENOSPC). Unset members make the real call.
  WalSyscalls syscalls;
};

/// Functional commit accounting (not obs — these survive -DCBTREE_OBS=OFF
/// and feed the serve final report's amortization numbers).
struct WalStats {
  std::atomic<uint64_t> appends{0};        ///< records appended
  std::atomic<uint64_t> groups{0};         ///< group flushes (write(2) calls)
  std::atomic<uint64_t> fsyncs{0};         ///< fsync/fdatasync calls
  std::atomic<uint64_t> bytes{0};          ///< record bytes written
  std::atomic<uint64_t> max_group{0};      ///< largest group (records)
  std::atomic<uint64_t> rotations{0};      ///< segment files opened
};

class ShardLog {
 public:
  /// Opens a fresh segment at `options.start_lsn` and starts the writer
  /// thread. Returns null and fills `*error` on I/O failure.
  static std::unique_ptr<ShardLog> Open(const WalOptions& options,
                                        std::string* error);
  ~ShardLog();

  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Appends one record and returns its LSN (never 0). The record is NOT
  /// durable yet — pair with WaitDurable or WhenDurable. Thread-safe.
  uint64_t AppendInsert(Key key, Value value);
  uint64_t AppendDelete(Key key);

  /// Blocks until every record with LSN <= `lsn` is durable under the
  /// configured fsync mode. `lsn == 0` returns immediately.
  void WaitDurable(uint64_t lsn);

  /// Runs `callback` once every record with LSN <= `lsn` is durable: inline
  /// on the calling thread when it already is (or `lsn == 0`), otherwise on
  /// the writer thread right after the watermark advance that covers `lsn`.
  /// Never runs under the log mutex, and never after a failed barrier (the
  /// writer aborts instead). A parked callback must not block on this log.
  /// Its registration-to-run time is recorded as wal.sync_wait_ns.
  void WhenDurable(uint64_t lsn, std::function<void()> callback);

  /// Blocks until everything appended so far (by any thread) is durable.
  void SyncAll();

  /// Durability watermark (relaxed read; exact after Close).
  uint64_t DurableLsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Last LSN the *calling thread* appended to this log, or 0 if it never
  /// appended here. Lets the server release one batch's acks with a single
  /// WhenDurable, without threading LSNs through the tree API.
  uint64_t ThreadLastLsn() const;

  const WalStats& stats() const { return stats_; }
  uint32_t shard() const { return shard_; }

  /// Flushes everything buffered, syncs, and joins the writer thread.
  /// Idempotent; the destructor calls it.
  void Close();

 private:
  ShardLog() = default;

  /// A WhenDurable callback waiting for the watermark to reach `lsn`.
  struct ParkedCallback {
    uint64_t lsn = 0;
    std::chrono::steady_clock::time_point parked_at;
    std::function<void()> callback;
  };

  uint64_t Append(RecordType type, Key key, Value value);
  void WriterLoop();
  /// One durability barrier on the current segment per the fsync mode
  /// (no-op under kOff). Returns false on syscall failure.
  bool SyncFd();
  /// write(2) until all of `data` is down, retrying short writes and EINTR.
  bool WriteAll(const char* data, size_t size);
  /// Trims the current segment to its written length (dropping the
  /// preallocated tail) and syncs it. Returns false on syscall failure.
  bool SealSegment();
  /// Writes `group` to the current segment (rotating first if it would
  /// overflow), then syncs per `fsync_`. Returns false on I/O failure.
  bool FlushGroup(const std::string& group, uint64_t first_lsn,
                  uint64_t record_count);
  bool OpenSegment(uint64_t start_lsn, std::string* error);

  std::string dir_;
  uint32_t shard_ = 0;
  FsyncMode fsync_ = FsyncMode::kData;
  uint32_t group_commit_us_ = 0;
  uint64_t segment_bytes_ = 0;
  WalSyscalls syscalls_;

  Mutex mu_;
  std::condition_variable_any pending_cv_;  // appender -> writer
  std::condition_variable_any durable_cv_;  // writer -> waiters
  /// WhenDurable callbacks not yet covered by durable_lsn_. Checked against
  /// the watermark under mu_, the same lock the writer publishes it under,
  /// so a registration can never miss the advance that covers it.
  std::vector<ParkedCallback> parked_ CBTREE_GUARDED_BY(mu_);
  std::string buffer_ CBTREE_GUARDED_BY(mu_);
  uint64_t buffered_records_ CBTREE_GUARDED_BY(mu_) = 0;
  uint64_t buffered_first_lsn_ CBTREE_GUARDED_BY(mu_) = 0;
  /// When the buffered group's first record was appended: the start of its
  /// coalescing window.
  std::chrono::steady_clock::time_point buffered_since_ CBTREE_GUARDED_BY(mu_);
  uint64_t next_lsn_ CBTREE_GUARDED_BY(mu_) = 1;
  bool stop_ CBTREE_GUARDED_BY(mu_) = false;
  bool io_failed_ CBTREE_GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> durable_lsn_{0};

  // Writer-thread-only state (no lock needed).
  int fd_ = -1;
  uint64_t segment_written_ = 0;

  std::thread writer_;
  bool closed_ = false;

  WalStats stats_;
  obs::Timer fsync_timer_;
  obs::Timer group_size_timer_;
  obs::Timer sync_wait_timer_;
  obs::Counter append_counter_;
};

}  // namespace wal
}  // namespace cbtree

#endif  // CBTREE_WAL_LOG_WRITER_H_
