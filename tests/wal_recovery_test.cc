// Crash-recovery scan: round-trips through ShardLog, torn-tail truncation,
// the preallocated zero tail a SIGKILL leaves (trimmed, not torn), the
// hard-failure taxonomy (corrupt header, wrong shard, LSN gaps), a restart
// after a failed (EIO) barrier aborted the writer, and the full tree
// integration — log under each retention policy, recover into a fresh tree,
// and verify state equality plus CheckInvariants.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ctree/ctree.h"
#include "stats/rng.h"
#include "wal/log_writer.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"

namespace cbtree {
namespace wal {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cbtree_wal_rec_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "TempDir cleanup failed: %s\n", path_.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string FirstSegmentPath(const std::string& dir) {
  return dir + "/" + SegmentFileName(1);
}

/// Appends raw bytes to a file (simulating a torn write after a crash).
void AppendBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Flips one byte at `offset` in `path`.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long>(st.st_size);
}

/// Writes `count` records through a real ShardLog and closes it, leaving a
/// clean on-disk log whose record i is insert(key=i+1, value=2*(i+1)).
void WriteCleanLog(const std::string& dir, int count,
                   uint64_t segment_bytes = 64ull << 20) {
  WalOptions options;
  options.dir = dir;
  options.shard = 0;
  options.fsync = FsyncMode::kOff;
  options.group_commit_us = 0;
  options.segment_bytes = segment_bytes;
  std::string error;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  for (int i = 1; i <= count; ++i) {
    log->AppendInsert(static_cast<Key>(i), static_cast<Value>(2 * i));
  }
  log->Close();
}

TEST(RecoveryTest, MissingDirectoryRecoversEmpty) {
  TempDir tmp;
  RecoveryResult result = RecoverShard(tmp.path() + "/nonexistent", 0,
                                       [](const WalRecord&) { FAIL(); });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.segments, 0u);
  EXPECT_EQ(result.max_lsn, 0u);
}

TEST(RecoveryTest, RoundTripReplaysInLsnOrder) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 200);
  uint64_t expected_lsn = 1;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, expected_lsn++);
        EXPECT_EQ(record.type, RecordType::kInsert);
        EXPECT_EQ(record.key, static_cast<Key>(record.lsn));
        EXPECT_EQ(record.value, static_cast<Value>(2 * record.lsn));
      });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 200u);
  EXPECT_EQ(result.max_lsn, 200u);
  EXPECT_EQ(result.truncated_bytes, 0u);
}

TEST(RecoveryTest, MultiSegmentLogRecoversAcrossRotations) {
  TempDir tmp;
  // ~6 records per segment: 100 records spread over many files.
  WriteCleanLog(tmp.path(), 100, 6 * kRecordFrameSize);
  uint64_t count = 0;
  RecoveryResult result = RecoverShard(
      tmp.path(), 0, [&](const WalRecord&) { ++count; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 100u);
  EXPECT_EQ(count, 100u);
  EXPECT_GT(result.segments, 5u);
}

TEST(RecoveryTest, TornTailIsTruncatedAndRecoverySucceeds) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 10);
  const std::string segment = FirstSegmentPath(tmp.path());
  const long clean_size = FileSize(segment);
  ASSERT_GT(clean_size, 0);
  // Simulate a crash mid-append: half a record of valid-looking bytes.
  WalRecord torn{RecordType::kInsert, 11, 999, 999};
  std::string tail;
  AppendRecord(torn, &tail);
  tail.resize(kRecordFrameSize / 2);
  AppendBytes(segment, tail);

  uint64_t count = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord&) { ++count; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 10u);
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(result.truncated_bytes, tail.size());
  // The file was repaired in place: the torn bytes are gone, so a second
  // recovery is clean and a new writer appends to a valid tail.
  EXPECT_EQ(FileSize(segment), clean_size);
  RecoveryResult again =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.truncated_bytes, 0u);
}

TEST(RecoveryTest, CorruptRecordTruncatesFromThatPoint) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 10);
  const std::string segment = FirstSegmentPath(tmp.path());
  // Flip a payload byte of record 6 (frames start after the header).
  const long offset = static_cast<long>(kSegmentHeaderSize) +
                      5 * static_cast<long>(kRecordFrameSize) + 12;
  FlipByte(segment, offset);
  uint64_t count = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord&) { ++count; });
  // Only the prefix before the damage survives; the rest was never acked
  // with a valid CRC so dropping it is sound.
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(result.max_lsn, 5u);
  EXPECT_GT(result.truncated_bytes, 0u);
}

TEST(RecoveryTest, CorruptHeaderFailsLoudly) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 5);
  FlipByte(FirstSegmentPath(tmp.path()), 2);  // inside the magic
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryTest, WrongShardFailsLoudly) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 5);
  RecoveryResult result =
      RecoverShard(tmp.path(), 7, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryTest, LsnGapBetweenSegmentsFailsLoudly) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 20, 6 * kRecordFrameSize);
  // Unlink a middle segment: recovery must refuse to skip committed LSNs.
  RecoveryResult before = RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  ASSERT_TRUE(before.ok);
  ASSERT_GT(before.segments, 2u);
  // A fresh segment fits 5 records (the header takes 28 of the 198 bytes),
  // so the second segment starts at LSN 6.
  ASSERT_EQ(::unlink((tmp.path() + "/" + SegmentFileName(6)).c_str()), 0);
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryTest, SegmentsAfterTornTailAreDropped) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 20, 6 * kRecordFrameSize);
  // Corrupt a record in the SECOND segment (starts at LSN 6: a fresh
  // segment fits 5 records); the third+ segments hold LSNs after the damage
  // and must be unlinked, not replayed.
  FlipByte(tmp.path() + "/" + SegmentFileName(6),
           static_cast<long>(kSegmentHeaderSize) + 10);
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(result.max_lsn, 5u);
  EXPECT_GT(result.truncated_bytes, 0u);
  // A fresh writer at max_lsn+1 then a re-recovery must be seamless.
  WalOptions options;
  options.dir = tmp.path();
  options.shard = 0;
  options.fsync = FsyncMode::kOff;
  options.group_commit_us = 0;
  options.start_lsn = result.max_lsn + 1;
  std::string error;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  log->AppendInsert(1000, 1000);
  log->Close();
  uint64_t max_lsn = 0;
  RecoveryResult after =
      RecoverShard(tmp.path(), 0,
                   [&](const WalRecord& record) { max_lsn = record.lsn; });
  EXPECT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.records, 6u);
  EXPECT_EQ(max_lsn, 6u);
}

/// Writes `count` records (insert(key=i, value=2i)) through a real ShardLog
/// in a child process that then dies by SIGKILL: no seal, no Close, so the
/// segment keeps its preallocated zero tail, exactly as a killed server
/// leaves it.
void WriteKilledLog(const std::string& dir, int count,
                    uint64_t segment_bytes) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    WalOptions options;
    options.dir = dir;
    options.shard = 0;
    options.fsync = FsyncMode::kData;
    options.group_commit_us = 0;
    options.segment_bytes = segment_bytes;
    std::string error;
    auto log = ShardLog::Open(options, &error);
    if (log == nullptr) std::_Exit(2);
    uint64_t last = 0;
    for (int i = 1; i <= count; ++i) {
      last = log->AppendInsert(static_cast<Key>(i), static_cast<Value>(2 * i));
    }
    log->WaitDurable(last);
    ::kill(::getpid(), SIGKILL);
    std::_Exit(3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << status;
}

/// Overwrites `bytes` at `offset` of `path`, leaving the file size alone.
void WriteAt(const std::string& path, long offset, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, bytes.data(), bytes.size(), offset),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

TEST(RecoveryTest, KilledPreallocatedSegmentReplaysEveryRecord) {
  TempDir tmp;
  constexpr long kSegmentBytes = 1 << 20;
  WriteKilledLog(tmp.path(), 100, kSegmentBytes);
  const std::string segment = FirstSegmentPath(tmp.path());
  ASSERT_EQ(FileSize(segment), kSegmentBytes) << "left preallocated";
  const long written = static_cast<long>(kSegmentHeaderSize) +
                       100 * static_cast<long>(kRecordFrameSize);

  uint64_t expected_lsn = 1;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, expected_lsn++);
        EXPECT_EQ(record.value, static_cast<Value>(2 * record.lsn));
      });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 100u);
  EXPECT_EQ(result.max_lsn, 100u);
  EXPECT_EQ(result.truncated_bytes, 0u) << "a zero tail is not torn";
  EXPECT_EQ(result.preallocated_bytes,
            static_cast<uint64_t>(kSegmentBytes - written));
  // Trimmed in place, so a second recovery finds nothing to trim.
  EXPECT_EQ(FileSize(segment), written);
  RecoveryResult again = RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.records, 100u);
  EXPECT_EQ(again.preallocated_bytes, 0u);
}

TEST(RecoveryTest, TornRecordBeforeTheZeroTailCountsAsTorn) {
  TempDir tmp;
  constexpr long kSegmentBytes = 1 << 20;
  WriteKilledLog(tmp.path(), 10, kSegmentBytes);
  const std::string segment = FirstSegmentPath(tmp.path());
  const long written = static_cast<long>(kSegmentHeaderSize) +
                       10 * static_cast<long>(kRecordFrameSize);
  // Half of record 11 reached the preallocated area before the crash.
  std::string torn;
  AppendRecord(WalRecord{RecordType::kInsert, 11, 999, 999}, &torn);
  torn.resize(kRecordFrameSize / 2);
  WriteAt(segment, written, torn);

  RecoveryResult result = RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 10u);
  EXPECT_EQ(result.truncated_bytes, kRecordFrameSize)
      << "the frame holding the torn bytes is torn";
  EXPECT_EQ(result.preallocated_bytes,
            static_cast<uint64_t>(kSegmentBytes - written) - kRecordFrameSize);
  EXPECT_EQ(FileSize(segment), written);
}

TEST(RecoveryTest, ZeroFrameWithDataBehindItIsTorn) {
  TempDir tmp;
  constexpr long kSegmentBytes = 1 << 20;
  WriteKilledLog(tmp.path(), 10, kSegmentBytes);
  const std::string segment = FirstSegmentPath(tmp.path());
  const long written = static_cast<long>(kSegmentHeaderSize) +
                       10 * static_cast<long>(kRecordFrameSize);
  // A later page of the crashed group landed, an earlier one did not: the
  // first bad frame is all zero, but the remainder is not.
  std::string stray;
  AppendRecord(WalRecord{RecordType::kInsert, 13, 7, 7}, &stray);
  WriteAt(segment, written + 2 * static_cast<long>(kRecordFrameSize), stray);

  RecoveryResult result = RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 10u);
  EXPECT_EQ(result.truncated_bytes, 3 * kRecordFrameSize);
  EXPECT_EQ(FileSize(segment), written) << "stale bytes must not resurface";
}

TEST(RecoveryTest, ZeroTailedSealedSegmentKeepsItsSuccessors) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 20, 6 * kRecordFrameSize);
  // The first segment was sealed, but its trim never reached the disk: it
  // still ends in zeros, and the second segment continues at LSN 6.
  const std::string first = FirstSegmentPath(tmp.path());
  const long sealed = FileSize(first);
  ASSERT_EQ(::truncate(first.c_str(), 4096), 0);

  uint64_t count = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord&) { ++count; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 20u) << "later segments must not be dropped";
  EXPECT_EQ(count, 20u);
  EXPECT_EQ(result.max_lsn, 20u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_EQ(result.preallocated_bytes, static_cast<uint64_t>(4096 - sealed));
  EXPECT_EQ(FileSize(first), sealed);
  EXPECT_GT(FileSize(tmp.path() + "/" + SegmentFileName(16)), 0)
      << "the last segment is still there";
}

TEST(RecoveryTest, AllZeroNewestSegmentIsRemoved) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 10);
  // A crash right after the next segment was created and preallocated,
  // before its header reached the disk.
  const std::string newest = tmp.path() + "/" + SegmentFileName(11);
  {
    std::FILE* f = std::fopen(newest.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  ASSERT_EQ(::truncate(newest.c_str(), 8192), 0);
  RecoveryResult result = RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 10u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_EQ(result.preallocated_bytes, 8192u);
  EXPECT_EQ(FileSize(newest), -1) << "removed, so the next writer reuses it";
}

TEST(RecoveryTest, RestartAfterEioReplaysEverythingTheLastGoodBarrierCovered) {
  // A child process logs batches through a real ShardLog whose barrier
  // succeeds kGoodBarriers times and then fails with EIO, so the writer
  // aborts. Each good barrier first reports the last LSN it covers: the
  // segment's file offset after the group's write counts the frames
  // before it (one segment, so no rotation adds a barrier).
  TempDir tmp;
  constexpr int kGoodBarriers = 3;
  constexpr int kBatch = 40;
  int report[2];
  ASSERT_EQ(::pipe(report), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(report[0]);
    ::alarm(60);  // a writer that never aborts fails the test, not hangs it
    WalOptions options;
    options.dir = tmp.path();
    options.shard = 0;
    options.fsync = FsyncMode::kData;
    options.group_commit_us = 0;
    options.segment_bytes = 1 << 20;
    int barriers = 0;
    const int report_fd = report[1];
    options.syscalls.sync = [&barriers, report_fd](int fd) {
      if (++barriers > kGoodBarriers) {
        errno = EIO;
        return -1;
      }
      if (::fdatasync(fd) != 0) return -1;
      const uint64_t covered =
          (static_cast<uint64_t>(::lseek(fd, 0, SEEK_CUR)) -
           kSegmentHeaderSize) /
          kRecordFrameSize;
      if (::write(report_fd, &covered, sizeof(covered)) !=
          static_cast<ssize_t>(sizeof(covered))) {
        std::_Exit(4);
      }
      return 0;
    };
    std::string error;
    auto log = ShardLog::Open(options, &error);
    if (log == nullptr) std::_Exit(2);
    Key key = 0;
    for (;;) {  // until the failed barrier aborts the writer
      uint64_t last = 0;
      for (int i = 0; i < kBatch; ++i) {
        ++key;
        last = log->AppendInsert(key, 2 * key);
      }
      log->WaitDurable(last);
    }
  }
  ::close(report[1]);
  uint64_t covered = 0;
  int good = 0;
  uint64_t reported = 0;
  while (::read(report[0], &reported, sizeof(reported)) ==
         static_cast<ssize_t>(sizeof(reported))) {
    covered = reported;
    ++good;
  }
  ::close(report[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT) << status;
  ASSERT_EQ(good, kGoodBarriers);
  ASSERT_GT(covered, 0u);

  auto tree = MakeConcurrentBTree(Algorithm::kOlc, 8);
  uint64_t expected_lsn = 1;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, expected_lsn++) << "replayed LSNs have a gap";
        tree->Insert(record.key, record.value);
      });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, result.max_lsn) << "not a prefix from LSN 1";
  EXPECT_GE(result.max_lsn, covered)
      << "lost records the last good barrier made durable";
  tree->CheckInvariants();
  for (Key key = 1; key <= static_cast<Key>(covered); ++key) {
    const auto found = tree->Search(key);
    ASSERT_TRUE(found.has_value()) << "lost durable key " << key;
    EXPECT_EQ(*found, 2 * key);
  }
}

/// WalBinding over a real ShardLog, as the server wires it.
class LogBinding : public WalBinding {
 public:
  explicit LogBinding(ShardLog* log) : log_(log) {}
  uint64_t LogInsert(Key key, Value value) override {
    return log_->AppendInsert(key, value);
  }
  uint64_t LogDelete(Key key) override { return log_->AppendDelete(key); }
  void WaitDurable(uint64_t lsn) override { log_->WaitDurable(lsn); }

 private:
  ShardLog* log_;
};

class WalTreeIntegrationTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, RecoveryPolicy>> {
};

TEST_P(WalTreeIntegrationTest, MutationsReplayIntoIdenticalTree) {
  const Algorithm algorithm = std::get<0>(GetParam());
  const RecoveryPolicy retention = std::get<1>(GetParam());
  TempDir tmp;

  WalOptions options;
  options.dir = tmp.path();
  options.shard = 0;
  options.fsync = FsyncMode::kOff;
  options.group_commit_us = 20;
  std::string error;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  LogBinding binding(log.get());

  auto tree = MakeConcurrentBTree(algorithm, 8);
  tree->BindWal(&binding, retention);

  // A mixed workload with enough churn to split nodes and delete keys.
  std::map<Key, Value> oracle;
  Rng mix(12345);
  for (int i = 0; i < 3000; ++i) {
    Key key = static_cast<Key>(mix.NextBounded(800) + 1);
    if (mix.NextBounded(4) == 0) {
      tree->Delete(key);
      oracle.erase(key);
    } else {
      Value value = static_cast<Value>(i);
      tree->Insert(key, value);
      oracle[key] = value;
    }
  }
  tree->CheckInvariants();
  log->Close();

  // Replay into a fresh tree and compare against the oracle.
  auto replayed = MakeConcurrentBTree(algorithm, 8);
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        if (record.type == RecordType::kInsert) {
          replayed->Insert(record.key, record.value);
        } else {
          replayed->Delete(record.key);
        }
      });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.records, 0u);
  replayed->CheckInvariants();
  EXPECT_EQ(replayed->size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    auto found = replayed->Search(key);
    ASSERT_TRUE(found.has_value()) << "lost key " << key;
    EXPECT_EQ(*found, value);
  }
  for (Key key = 1; key <= 800; ++key) {
    if (oracle.count(key) == 0) {
      EXPECT_FALSE(replayed->Search(key).has_value())
          << "resurrected key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllPolicies, WalTreeIntegrationTest,
    ::testing::Combine(::testing::Values(Algorithm::kNaiveLockCoupling,
                                         Algorithm::kOptimisticDescent,
                                         Algorithm::kLinkType,
                                         Algorithm::kTwoPhaseLocking,
                                         Algorithm::kOlc),
                       ::testing::Values(RecoveryPolicy::kNone,
                                         RecoveryPolicy::kLeafOnly,
                                         RecoveryPolicy::kNaive)));

}  // namespace
}  // namespace wal
}  // namespace cbtree
