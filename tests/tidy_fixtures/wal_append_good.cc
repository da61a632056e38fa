// Negative fixture for cbtree-wal-append.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

namespace cbtree {

using Key = long;
using Value = long;

namespace wal {

class ShardLog {
 public:
  unsigned long AppendInsert(Key key, Value value);
  unsigned long AppendDelete(Key key);
  void WaitDurable(unsigned long lsn);
  void WhenDurable(unsigned long lsn, void (*callback)());
  void SyncAll();

 private:
  bool SyncFd();
  bool FlushGroup(const char* data, unsigned long size);
  bool OpenSegment(long segment_bytes);
  bool SealSegment();
  int fd_;
  long written_;
};

// The writer-side I/O layer owns the raw syscalls.
bool WriteAll(int fd, const char* data, unsigned long size) {
  while (size > 0) {
    const long n = ::write(fd, data, size);
    if (n < 0) return false;
    data += n;
    size -= static_cast<unsigned long>(n);
  }
  return true;
}

bool ShardLog::SyncFd() { return ::fdatasync(fd_) == 0; }

bool ShardLog::FlushGroup(const char* data, unsigned long size) {
  if (!WriteAll(fd_, data, size)) return false;
  return SyncFd();
}

// Preallocating a fresh segment and trimming a sealed one are the writer's
// own business.
bool ShardLog::OpenSegment(long segment_bytes) {
  ::fallocate(fd_, 0, 0, segment_bytes);
  return true;
}

bool ShardLog::SealSegment() {
  return ::ftruncate(fd_, written_) == 0 && SyncFd();
}

}  // namespace wal

// A qualified definition outside the WAL, with no group-commit call, may
// write its own files.
namespace report {
void WriteSummary(int fd);
}  // namespace report

void report::WriteSummary(int fd) {
  ::write(fd, "done\n", 5);
}

// A clean mutation path: group-commit API only, no file I/O of its own.
void InsertDurable(wal::ShardLog* log, Key key, Value value) {
  const unsigned long lsn = log->AppendInsert(key, value);
  log->WaitDurable(lsn);
}

// A clean asynchronous ack: the reply goes out from the callback the log
// runs once `lsn` is durable, with no file I/O on this path.
void InsertThenAck(wal::ShardLog* log, Key key, Value value,
                   void (*send_ack)()) {
  log->WhenDurable(log->AppendInsert(key, value), send_ack);
}

struct StatsSink {
  void write(const char* data, unsigned long size);
};

// Outside the wal layer and off the mutation path, ordinary file output
// (a stats stream) is none of this check's business — and a member call
// named `write` on some other abstraction never is.
void EmitStatsLine(std::FILE* stats_file, StatsSink* sink, const char* line,
                   unsigned long size) {
  std::fwrite(line, 1, size, stats_file);
  sink->write(line, size);
}

}  // namespace cbtree
