#include "wal/recovery.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

namespace cbtree {
namespace wal {
namespace {

// Frames read per scan step (~1 MiB).
constexpr size_t kScanChunkFrames = 32768;

// Closes the descriptor on scope exit.
struct FileDescriptor {
  explicit FileDescriptor(int f) : fd(f) {}
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  int fd;
};

struct SegmentRef {
  uint64_t start_lsn = 0;
  std::string path;
};

bool ListSegments(const std::string& dir, std::vector<SegmentRef>* out,
                  std::string* error) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return true;  // nothing logged yet
    *error = "wal: cannot open " + dir + ": " + std::strerror(errno);
    return false;
  }
  while (dirent* entry = ::readdir(d)) {
    uint64_t start_lsn = 0;
    const std::string name = entry->d_name;
    if (!ParseSegmentFileName(name, &start_lsn)) continue;
    SegmentRef ref;
    ref.start_lsn = start_lsn;
    ref.path = dir + "/" + name;
    out->push_back(std::move(ref));
  }
  ::closedir(d);
  std::sort(out->begin(), out->end(),
            [](const SegmentRef& a, const SegmentRef& b) {
              return a.start_lsn < b.start_lsn;
            });
  return true;
}

// pread(2) of up to `size` bytes at `offset` into `out`; shorter only at
// end of file.
bool ReadAt(int fd, uint64_t offset, size_t size, std::string* out) {
  out->resize(size);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd, &(*out)[got], size - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  return true;
}

// Sets `*end` just past the last non-zero byte in [from, size) of `fd`, or
// to `from` when the range is all zero. Ranges the filesystem reports as
// holes (including preallocated, never-written extents) are skipped with
// SEEK_DATA/SEEK_HOLE instead of read; where it cannot tell, every byte is
// read.
bool NonZeroEnd(int fd, uint64_t from, uint64_t size, uint64_t* end) {
  *end = from;
  std::string buf;
  uint64_t pos = from;
  while (pos < size) {
    off_t data = ::lseek(fd, static_cast<off_t>(pos), SEEK_DATA);
    if (data < 0 && errno == ENXIO) break;  // only holes from here on
    if (data < 0) data = static_cast<off_t>(pos);
    if (static_cast<uint64_t>(data) >= size) break;
    off_t hole = ::lseek(fd, data, SEEK_HOLE);
    if (hole < 0) hole = static_cast<off_t>(size);
    const uint64_t stop = std::min<uint64_t>(static_cast<uint64_t>(hole), size);
    for (uint64_t at = static_cast<uint64_t>(data); at < stop;) {
      if (!ReadAt(fd, at, std::min<uint64_t>(stop - at, 1 << 16), &buf)) {
        return false;
      }
      if (buf.empty()) return true;  // the file shrank under us
      const size_t last = buf.find_last_not_of('\0');
      if (last != std::string::npos) *end = at + last + 1;
      at += buf.size();
    }
    pos = std::max<uint64_t>(stop, static_cast<uint64_t>(data) + 1);
  }
  return true;
}

RecoveryResult Fail(std::string message) {
  RecoveryResult result;
  result.ok = false;
  result.error = std::move(message);
  return result;
}

}  // namespace

RecoveryResult RecoverShard(
    const std::string& dir, uint32_t shard,
    const std::function<void(const WalRecord&)>& apply) {
  RecoveryResult result;
  std::vector<SegmentRef> segments;
  std::string error;
  if (!ListSegments(dir, &segments, &error)) return Fail(std::move(error));

  uint64_t expected_lsn = 0;  // 0: not pinned yet (first segment sets it)
  bool tail_torn = false;
  size_t next_index = 0;
  std::string bytes;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentRef& seg = segments[i];
    const bool last = (i + 1 == segments.size());
    FileDescriptor file(::open(seg.path.c_str(), O_RDONLY));
    // No readahead: SEEK_DATA counts cached pages of a preallocated extent
    // as data, so pages read ahead past the written end would be scanned as
    // the tail. The scan's own large reads keep a cold log sequential.
    ::posix_fadvise(file.fd, 0, 0, POSIX_FADV_RANDOM);
    struct stat st;
    if (file.fd < 0 || ::fstat(file.fd, &st) != 0 ||
        !ReadAt(file.fd, 0, kSegmentHeaderSize, &bytes)) {
      return Fail("wal: cannot read " + seg.path + ": " +
                  std::strerror(errno));
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    // A segment whose header never reached the disk — the file is shorter
    // than a header, or preallocated and still all zero — can only come
    // from a crash during segment creation, which is necessarily the
    // newest file; anywhere else it is corruption, not crash damage.
    const bool header_short = bytes.size() < kSegmentHeaderSize;
    uint64_t nonzero_end = 1;
    if (!header_short && bytes.find_first_not_of('\0') == std::string::npos &&
        !NonZeroEnd(file.fd, 0, size, &nonzero_end)) {
      return Fail("wal: read error on " + seg.path);
    }
    if (header_short || nonzero_end == 0) {
      if (!last) {
        return Fail("wal: " + seg.path +
                    " has no segment header mid-sequence");
      }
      if (header_short) {
        result.truncated_bytes += size;
      } else {
        result.preallocated_bytes += size;
      }
      if (::unlink(seg.path.c_str()) != 0) {
        return Fail("wal: cannot remove torn segment " + seg.path + ": " +
                    std::strerror(errno));
      }
      next_index = i + 1;
      tail_torn = true;
      break;
    }
    SegmentHeader header;
    if (DecodeSegmentHeader(reinterpret_cast<const uint8_t*>(bytes.data()),
                            bytes.size(), &header) != DecodeStatus::kOk) {
      return Fail("wal: " + seg.path + " has a corrupt segment header");
    }
    if (header.shard != shard) {
      return Fail("wal: " + seg.path + " belongs to shard " +
                  std::to_string(header.shard) + ", expected " +
                  std::to_string(shard));
    }
    if (header.start_lsn != seg.start_lsn) {
      return Fail("wal: " + seg.path + " header start LSN " +
                  std::to_string(header.start_lsn) +
                  " disagrees with its file name");
    }
    if (expected_lsn != 0 && header.start_lsn != expected_lsn) {
      return Fail("wal: LSN gap before " + seg.path + ": expected " +
                  std::to_string(expected_lsn) + ", header says " +
                  std::to_string(header.start_lsn));
    }
    expected_lsn = header.start_lsn;
    ++result.segments;

    // Read whole frames at a time, so a chunk ends mid-frame only at the
    // end of the file, and stop at the first frame that is not the next
    // record: the scan never reads far past the written end.
    uint64_t offset = kSegmentHeaderSize;
    while (offset < size) {
      if (!ReadAt(file.fd, offset, kScanChunkFrames * kRecordFrameSize,
                  &bytes)) {
        return Fail("wal: read error on " + seg.path);
      }
      size_t pos = 0;
      while (pos < bytes.size()) {
        WalRecord record;
        size_t consumed = 0;
        if (DecodeRecord(reinterpret_cast<const uint8_t*>(bytes.data()) + pos,
                         bytes.size() - pos, &record,
                         &consumed) != DecodeStatus::kOk) {
          break;
        }
        if (record.lsn != expected_lsn) {
          // CRC-valid but out-of-sequence: this is not torn-write damage.
          return Fail("wal: " + seg.path + " record LSN " +
                      std::to_string(record.lsn) + " breaks the sequence at " +
                      std::to_string(expected_lsn));
        }
        apply(record);
        ++result.records;
        result.max_lsn = record.lsn;
        ++expected_lsn;
        pos += consumed;
      }
      offset += pos;
      if (pos < bytes.size() || bytes.empty()) break;
    }
    if (offset < size) {
      // Nothing from here on is reachable. An all-zero remainder is the
      // preallocated tail the appends never reached: the segment ended
      // cleanly (a later segment, if any, must continue the sequence). Any
      // non-zero byte makes it the torn tail of the final crash — kNeedMore
      // (file ends mid-record) or kError (CRC/length/type mismatch) — which
      // runs through the last frame holding one. Cut both off, so the next
      // writer appends to a clean tail and stale bytes never resurface.
      if (!NonZeroEnd(file.fd, offset, size, &nonzero_end)) {
        return Fail("wal: read error on " + seg.path);
      }
      const uint64_t torn_frames =
          (nonzero_end - offset + kRecordFrameSize - 1) / kRecordFrameSize;
      const uint64_t torn_end =
          std::min(size, offset + torn_frames * kRecordFrameSize);
      if (::truncate(seg.path.c_str(), static_cast<off_t>(offset)) != 0) {
        return Fail("wal: cannot truncate the tail of " + seg.path + ": " +
                    std::strerror(errno));
      }
      result.truncated_bytes += torn_end - offset;
      result.preallocated_bytes += size - torn_end;
      tail_torn = torn_end > offset;
    }
    next_index = i + 1;
    if (tail_torn) break;
  }

  if (tail_torn) {
    // Segments past a torn record are unreachable by LSN order and would
    // poison the next recovery's continuity check; remove them.
    for (size_t i = next_index; i < segments.size(); ++i) {
      struct stat st;
      if (::stat(segments[i].path.c_str(), &st) == 0) {
        result.truncated_bytes += static_cast<uint64_t>(st.st_size);
      }
      if (::unlink(segments[i].path.c_str()) != 0) {
        return Fail("wal: cannot remove orphaned segment " +
                    segments[i].path + ": " + std::strerror(errno));
      }
    }
  }
  return result;
}

}  // namespace wal
}  // namespace cbtree
