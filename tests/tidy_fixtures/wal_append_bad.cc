// Positive fixture for cbtree-wal-append.
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
};

void RepairByHand(int fd);
template <typename F>
void Defer(F fn);

// Inside the wal namespace, raw write-side syscalls belong to the
// writer-side I/O layer only; an appender-side helper must not write the
// file by hand.
void AppendRawFrame(int fd, const char* data, unsigned long size) {
  ::write(fd, data, size);  // expect-diag: cbtree-wal-append
}

void HardenTail(int fd) {
  ::fsync(fd);  // expect-diag: cbtree-wal-append
}

// Sizing the file is write-side I/O too: a helper outside the writer-side
// layer must not preallocate or trim the segment under the writer's feet.
void ReserveSegment(int fd, long bytes) {
  ::fallocate(fd, 0, 0, bytes);  // expect-diag: cbtree-wal-append
}

void TrimSegment(int fd, long bytes) {
  ::ftruncate(fd, bytes);  // expect-diag: cbtree-wal-append
}

// A lambda inside the writer-side layer is not writer-side code: it runs
// wherever, and whenever, it is called.
void WriterLoop(int fd) {
  Defer([fd] {
    ::fdatasync(fd);  // expect-diag: cbtree-wal-append
  });
}

}  // namespace wal

// A definition qualified into the wal namespace is inside the WAL layer.
void wal::RepairByHand(int fd) {
  ::fsync(fd);  // expect-diag: cbtree-wal-append
}

// A logged mutation path: it commits through the group-commit API, so a
// raw syscall beside it is a second, unaccounted durability channel.
void InsertDurable(wal::ShardLog* log, int fd, Key key, Value value) {
  const unsigned long lsn = log->AppendInsert(key, value);
  ::fdatasync(fd);  // expect-diag: cbtree-wal-append
  log->WaitDurable(lsn);
}

void RemoveAndJournal(wal::ShardLog* log, std::FILE* side_channel, Key key) {
  const unsigned long lsn = log->AppendDelete(key);
  std::fwrite(&key, sizeof(key), 1,  // expect-diag: cbtree-wal-append
              side_channel);
  log->WaitDurable(lsn);
}

// Parking an ack on the durable watermark is the same commit: a hand-made
// barrier next to it would ack through a channel the log does not count.
void AckWhenDurable(wal::ShardLog* log, int fd, unsigned long lsn,
                    void (*send_ack)()) {
  ::fdatasync(fd);  // expect-diag: cbtree-wal-append
  log->WhenDurable(lsn, send_ack);
}

}  // namespace cbtree
