#include "wal/log_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace cbtree {
namespace wal {
namespace {

// The most recent log this thread appended to, and the LSN it got. One slot
// per thread is enough: a server event loop runs each batch on one shard
// and reads the slot right after the pass, so every append it asks about
// went to that shard's log, even when the loop serves several shards (a
// thread that alternates logs between reads — tests, the preload loop —
// sees last-write-wins and must pair Append with WaitDurable promptly or
// use SyncAll).
struct TlsLastAppend {
  const ShardLog* log = nullptr;
  uint64_t lsn = 0;
};
thread_local TlsLastAppend tls_last_append;

// mkdir -p: creates every missing component, tolerates existing ones.
bool MakeDirs(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (!prefix.empty() && prefix != "/" && prefix != ".") {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
    if (i < path.size()) prefix.push_back('/');
  }
  return true;
}

}  // namespace

const char* FsyncModeName(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kOff:
      return "off";
    case FsyncMode::kData:
      return "data";
    case FsyncMode::kFull:
      return "full";
  }
  return "unknown";
}

bool ParseFsyncMode(const std::string& text, FsyncMode* out) {
  if (text == "off") {
    *out = FsyncMode::kOff;
  } else if (text == "data") {
    *out = FsyncMode::kData;
  } else if (text == "full") {
    *out = FsyncMode::kFull;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<ShardLog> ShardLog::Open(const WalOptions& options,
                                         std::string* error) {
  std::unique_ptr<ShardLog> log(new ShardLog());
  log->dir_ = options.dir;
  log->shard_ = options.shard;
  log->fsync_ = options.fsync;
  log->group_commit_us_ = options.group_commit_us;
  log->syscalls_ = options.syscalls;
  // A segment must at least fit its header plus one record.
  log->segment_bytes_ =
      std::max<uint64_t>(options.segment_bytes,
                         kSegmentHeaderSize + kRecordFrameSize);
  const uint64_t start_lsn = std::max<uint64_t>(options.start_lsn, 1);
  log->next_lsn_ = start_lsn;
  // Everything below start_lsn was replayed from disk, i.e. already durable.
  log->durable_lsn_.store(start_lsn - 1, std::memory_order_release);
  if (!MakeDirs(log->dir_)) {
    *error = "wal: cannot create directory " + log->dir_ + ": " +
             std::strerror(errno);
    return nullptr;
  }
  if (!log->OpenSegment(start_lsn, error)) return nullptr;
  if (options.registry != nullptr) {
    const std::string suffix = ".s" + std::to_string(options.shard);
    log->append_counter_ = options.registry->counter("wal.append" + suffix);
    log->fsync_timer_ = options.registry->timer("wal.fsync_ns" + suffix);
    log->group_size_timer_ =
        options.registry->timer("wal.group_size" + suffix);
    log->sync_wait_timer_ =
        options.registry->timer("wal.sync_wait_ns" + suffix);
  }
  log->writer_ = std::thread(&ShardLog::WriterLoop, log.get());
  return log;
}

ShardLog::~ShardLog() { Close(); }

uint64_t ShardLog::AppendInsert(Key key, Value value) {
  return Append(RecordType::kInsert, key, value);
}

uint64_t ShardLog::AppendDelete(Key key) {
  return Append(RecordType::kDelete, key, 0);
}

uint64_t ShardLog::Append(RecordType type, Key key, Value value) {
  uint64_t lsn;
  {
    MutexLock lock(&mu_);
    lsn = next_lsn_++;
    if (buffered_records_ == 0) {
      // This record opens a group: its coalescing window starts now.
      buffered_first_lsn_ = lsn;
      buffered_since_ = std::chrono::steady_clock::now();
    }
    WalRecord record;
    record.type = type;
    record.lsn = lsn;
    record.key = key;
    record.value = value;
    AppendRecord(record, &buffer_);
    ++buffered_records_;
  }
  pending_cv_.notify_one();
  stats_.appends.fetch_add(1, std::memory_order_relaxed);
  append_counter_.Add();
  tls_last_append.log = this;
  tls_last_append.lsn = lsn;
  return lsn;
}

uint64_t ShardLog::ThreadLastLsn() const {
  return tls_last_append.log == this ? tls_last_append.lsn : 0;
}

void ShardLog::WaitDurable(uint64_t lsn) {
  if (lsn == 0) return;
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return;
  obs::ScopedTimer scoped(sync_wait_timer_);
  MutexLock lock(&mu_);
  while (durable_lsn_.load(std::memory_order_acquire) < lsn) {
    mu_.Wait(&durable_cv_);
  }
}

void ShardLog::WhenDurable(uint64_t lsn, std::function<void()> callback) {
  if (lsn != 0 && durable_lsn_.load(std::memory_order_acquire) < lsn) {
    MutexLock lock(&mu_);
    // Re-checked under mu_: the writer publishes every advance under it, so
    // either this sees the advance or the writer sees this registration.
    if (durable_lsn_.load(std::memory_order_acquire) < lsn) {
      CBTREE_CHECK(lsn < next_lsn_) << "WhenDurable on an unassigned LSN";
      ParkedCallback parked;
      parked.lsn = lsn;
      parked.parked_at = std::chrono::steady_clock::now();
      parked.callback = std::move(callback);
      parked_.push_back(std::move(parked));
      return;
    }
  }
  callback();
}

void ShardLog::SyncAll() {
  uint64_t last;
  {
    MutexLock lock(&mu_);
    last = next_lsn_ - 1;
  }
  WaitDurable(last);
}

void ShardLog::Close() {
  {
    MutexLock lock(&mu_);
    if (stop_) return;  // already closed (or closing on another thread)
    stop_ = true;
  }
  pending_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) {
    // The writer flushed and synced every group before it returned; what
    // is left is trimming the preallocated tail, best effort (recovery
    // trims a zero tail itself).
    SealSegment();
    ::close(fd_);
    fd_ = -1;
  }
}

void ShardLog::WriterLoop() {
  for (;;) {
    std::string group;
    uint64_t first_lsn = 0;
    uint64_t record_count = 0;
    uint64_t last_lsn = 0;
    {
      MutexLock lock(&mu_);
      while (!stop_ && buffered_records_ == 0) mu_.Wait(&pending_cv_);
      if (buffered_records_ == 0) return;  // stop_ && drained
      if (group_commit_us_ > 0 && !stop_) {
        // Coalescing window, counted from the group's first append: stay
        // asleep until the deadline so concurrent appenders pile into this
        // group (notify wakes us early; keep waiting out the remainder). A
        // group that opened while the writer was busy with the previous
        // barrier has already waited part of it, or all.
        const auto deadline =
            buffered_since_ + std::chrono::microseconds(group_commit_us_);
        while (!stop_) {
          const auto now = std::chrono::steady_clock::now();
          if (now >= deadline) break;
          mu_.WaitFor(&pending_cv_, deadline - now);
        }
      }
      group.swap(buffer_);
      record_count = buffered_records_;
      first_lsn = buffered_first_lsn_;
      buffered_records_ = 0;
      buffered_first_lsn_ = 0;
      last_lsn = next_lsn_ - 1;
    }
    if (!FlushGroup(group, first_lsn, record_count)) {
      // An unflushable log cannot honestly acknowledge anything again;
      // failing loudly beats acking writes that are not on disk.
      std::fprintf(stderr,
                   "cbtree wal: shard %u group flush failed (%s); aborting\n",
                   shard_, std::strerror(errno));
      std::abort();
    }
    std::vector<ParkedCallback> covered;
    {
      MutexLock lock(&mu_);
      durable_lsn_.store(last_lsn, std::memory_order_release);
      // Take every parked callback this advance covers; the rest were
      // appended after this group was cut and wait for a later one.
      auto ready = std::partition(
          parked_.begin(), parked_.end(),
          [last_lsn](const ParkedCallback& p) { return p.lsn > last_lsn; });
      covered.assign(std::make_move_iterator(ready),
                     std::make_move_iterator(parked_.end()));
      parked_.erase(ready, parked_.end());
    }
    durable_cv_.notify_all();
    const auto now = std::chrono::steady_clock::now();
    for (ParkedCallback& parked : covered) {
      sync_wait_timer_.RecordNs(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - parked.parked_at)
              .count()));
      parked.callback();
    }
  }
}

bool ShardLog::SyncFd() {
  if (fsync_ == FsyncMode::kOff) return true;
  obs::ScopedTimer scoped(fsync_timer_);
  int rc;
  if (syscalls_.sync) {
    rc = syscalls_.sync(fd_);
  } else {
    rc = fsync_ == FsyncMode::kFull
             ? ::fsync(fd_)       // NOLINT(cbtree-wal-append)
             : ::fdatasync(fd_);  // NOLINT(cbtree-wal-append)
  }
  if (rc != 0) return false;
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShardLog::WriteAll(const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n =
        syscalls_.write ? syscalls_.write(fd_, data, size)
                        : ::write(fd_, data, size);  // NOLINT(cbtree-wal-append)
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ShardLog::SealSegment() {
  const off_t length = static_cast<off_t>(segment_written_);
  const int rc =
      syscalls_.ftruncate
          ? syscalls_.ftruncate(fd_, length)
          : ::ftruncate(fd_, length);  // NOLINT(cbtree-wal-append)
  return rc == 0 && SyncFd();
}

bool ShardLog::FlushGroup(const std::string& group, uint64_t first_lsn,
                          uint64_t record_count) {
  if (group.empty()) return true;
  if (fd_ < 0) return false;
  // A group is a concatenation of fixed-size frames; write it in chunks so
  // rotation honors segment_bytes even when one group spans segments.
  // Records never split across files.
  size_t offset = 0;
  uint64_t written = 0;
  while (offset < group.size()) {
    if (segment_written_ > kSegmentHeaderSize &&
        segment_written_ + kRecordFrameSize > segment_bytes_) {
      // Seal the full segment (trim the preallocated tail, sync per mode —
      // its records may already be acknowledged) and start the next at the
      // first unwritten LSN.
      if (!SealSegment()) return false;
      ::close(fd_);
      fd_ = -1;
      std::string error;
      if (!OpenSegment(first_lsn + written, &error)) {
        std::fprintf(stderr, "cbtree wal: %s\n", error.c_str());
        return false;
      }
    }
    // Open clamps segment_bytes_ to fit at least one record per segment,
    // so a fresh (or non-full) segment always has room >= 1 here.
    const uint64_t room =
        (segment_bytes_ - segment_written_) / kRecordFrameSize;
    const uint64_t chunk_records =
        std::min<uint64_t>(std::max<uint64_t>(room, 1), record_count - written);
    const size_t chunk =
        static_cast<size_t>(chunk_records) * kRecordFrameSize;
    if (!WriteAll(group.data() + offset, chunk)) return false;
    segment_written_ += chunk;
    offset += chunk;
    written += chunk_records;
  }
  stats_.groups.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes.fetch_add(group.size(), std::memory_order_relaxed);
  uint64_t prev_max = stats_.max_group.load(std::memory_order_relaxed);
  while (record_count > prev_max &&
         !stats_.max_group.compare_exchange_weak(
             prev_max, record_count, std::memory_order_relaxed)) {
  }
  group_size_timer_.RecordNs(record_count);
  return SyncFd();
}

bool ShardLog::OpenSegment(uint64_t start_lsn, std::string* error) {
  const std::string path = dir_ + "/" + SegmentFileName(start_lsn);
  // O_TRUNC is safe: an existing file of this name can only be a segment
  // recovery found zero valid records in (otherwise start_lsn — the max
  // replayed LSN + 1 — would be past its name).
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) {
    *error = "wal: cannot open segment " + path + ": " + std::strerror(errno);
    return false;
  }
  std::string header;
  SegmentHeader h;
  h.shard = shard_;
  h.start_lsn = start_lsn;
  AppendSegmentHeader(h, &header);
  if (!WriteAll(header.data(), header.size())) {
    *error = "wal: cannot write segment header " + path + ": " +
             std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  // Preallocate the whole segment, so group writes land inside the file's
  // size and each barrier syncs data only, not a size change. Where the
  // filesystem cannot (EOPNOTSUPP, ENOSPC, ...), the file grows by append
  // instead; either way the seal trims it to what was written.
  const off_t length = static_cast<off_t>(segment_bytes_);
  if (syscalls_.fallocate) {
    syscalls_.fallocate(fd_, length);
  } else {
    ::fallocate(fd_, 0, 0, length);  // NOLINT(cbtree-wal-append)
  }
  if (fsync_ != FsyncMode::kOff) {
    // Make the file's existence durable too: sync the directory entry.
    const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);  // NOLINT(cbtree-wal-append)
      ::close(dir_fd);
    }
  }
  segment_written_ = header.size();
  stats_.rotations.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace wal
}  // namespace cbtree
