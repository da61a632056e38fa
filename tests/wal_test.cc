// WAL format and group-commit log writer: encode/decode round-trips, CRC
// rejection, segment naming, and the ShardLog durability contract (dense
// LSNs, WaitDurable watermark, WhenDurable callbacks released by the
// writer, group coalescing with the window counted from a group's first
// append, rotation, preallocated segments trimmed on seal/Close, all three
// fsync modes, idempotent Close), plus write-side fault injection through
// the WalSyscalls seam (short writes, EINTR, fallocate failure, EIO).

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "wal/log_writer.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"

namespace cbtree {
namespace wal {
namespace {

/// Unique scratch directory, removed (recursively) on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cbtree_wal_test_XXXXXX";
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

TEST(WalFormatTest, Crc32cKnownAnswer) {
  // The canonical CRC32C check vector ("123456789" -> 0xE3069283).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(digits), 9), 0xE3069283u);
  // Empty input, and chaining equals one-shot.
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  uint32_t chained = Crc32c(reinterpret_cast<const uint8_t*>(digits), 4);
  chained = Crc32c(reinterpret_cast<const uint8_t*>(digits) + 4, 5, chained);
  EXPECT_EQ(chained, 0xE3069283u);
}

TEST(WalFormatTest, RecordRoundTrip) {
  WalRecord record;
  record.type = RecordType::kInsert;
  record.lsn = 42;
  record.key = -7;
  record.value = 1234567890123456789ll;
  std::string wire;
  AppendRecord(record, &wire);
  ASSERT_EQ(wire.size(), kRecordFrameSize);

  WalRecord out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size(), &out, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, kRecordFrameSize);
  EXPECT_EQ(out.type, record.type);
  EXPECT_EQ(out.lsn, record.lsn);
  EXPECT_EQ(out.key, record.key);
  EXPECT_EQ(out.value, record.value);
}

TEST(WalFormatTest, EveryTruncationPointNeedsMore) {
  WalRecord record{RecordType::kDelete, 9, 100, 0};
  std::string wire;
  AppendRecord(record, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    WalRecord out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()), cut,
                           &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(WalFormatTest, CorruptPayloadByteIsRejected) {
  WalRecord record{RecordType::kInsert, 5, 77, 88};
  std::string wire;
  AppendRecord(record, &wire);
  // Flip each payload byte in turn; the CRC must catch every single one.
  for (size_t at = 8; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    WalRecord out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(bad.data()),
                           bad.size(), &out, &consumed),
              DecodeStatus::kError)
        << "flip at " << at;
  }
}

TEST(WalFormatTest, BadLengthPrefixIsError) {
  WalRecord record{RecordType::kInsert, 1, 2, 3};
  std::string wire;
  AppendRecord(record, &wire);
  wire[0] = static_cast<char>(kRecordPayloadSize + 1);
  WalRecord out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size(), &out, &consumed),
            DecodeStatus::kError);
}

TEST(WalFormatTest, BadRecordTypeIsError) {
  // Re-encode with a bogus type byte and a CRC that matches it, so only the
  // type check can reject it.
  std::string payload;
  payload.push_back(static_cast<char>(99));
  for (int i = 0; i < 24; ++i) payload.push_back(0);
  std::string wire;
  wire.push_back(static_cast<char>(kRecordPayloadSize));
  for (int i = 0; i < 3; ++i) wire.push_back(0);
  uint32_t crc = Crc32c(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size());
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  wire += payload;
  ASSERT_EQ(wire.size(), kRecordFrameSize);
  WalRecord out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size(), &out, &consumed),
            DecodeStatus::kError);
}

TEST(WalFormatTest, SegmentHeaderRoundTripAndCorruption) {
  SegmentHeader header;
  header.shard = 3;
  header.start_lsn = 1000;
  std::string wire;
  AppendSegmentHeader(header, &wire);
  ASSERT_EQ(wire.size(), kSegmentHeaderSize);

  SegmentHeader out;
  ASSERT_EQ(DecodeSegmentHeader(reinterpret_cast<const uint8_t*>(wire.data()),
                                wire.size(), &out),
            DecodeStatus::kOk);
  EXPECT_EQ(out.version, kSegmentVersion);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.start_lsn, 1000u);

  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(DecodeSegmentHeader(
                  reinterpret_cast<const uint8_t*>(wire.data()), cut, &out),
              DecodeStatus::kNeedMore);
  }
  for (size_t at = 0; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_EQ(DecodeSegmentHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                                  bad.size(), &out),
              DecodeStatus::kError)
        << "flip at " << at;
  }
}

TEST(WalFormatTest, SegmentFileNames) {
  EXPECT_EQ(SegmentFileName(1), "wal-00000000000000000001.seg");
  uint64_t lsn = 0;
  EXPECT_TRUE(ParseSegmentFileName("wal-00000000000000000001.seg", &lsn));
  EXPECT_EQ(lsn, 1u);
  EXPECT_TRUE(ParseSegmentFileName(SegmentFileName(18446744073709551615ull),
                                   &lsn));
  EXPECT_EQ(lsn, 18446744073709551615ull);
  EXPECT_FALSE(ParseSegmentFileName("wal-1.seg", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("wal-0000000000000000000x.seg", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("wal-00000000000000000001.tmp", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("00000000000000000001.seg", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("", &lsn));
}

long FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long>(st.st_size);
}

/// Sizes of every segment file under `dir`.
std::vector<long> SegmentSizes(const std::string& dir) {
  std::vector<long> sizes;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return sizes;
  while (dirent* entry = ::readdir(d)) {
    uint64_t start_lsn = 0;
    if (ParseSegmentFileName(entry->d_name, &start_lsn)) {
      sizes.push_back(FileSize(dir + "/" + entry->d_name));
    }
  }
  ::closedir(d);
  return sizes;
}

/// Recovers `dir` (shard 0), counting replayed records.
RecoveryResult Recover(const std::string& dir) {
  return RecoverShard(dir, 0, [](const WalRecord&) {});
}

WalOptions TestOptions(const std::string& dir, FsyncMode mode) {
  WalOptions options;
  options.dir = dir;
  options.shard = 0;
  options.fsync = mode;
  options.group_commit_us = 50;
  return options;
}

TEST(ShardLogTest, AppendAssignsDenseLsnsAndWaitDurableCovers) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kData), &error);
  ASSERT_NE(log, nullptr) << error;

  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(log->AppendInsert(static_cast<Key>(i), 0), i);
  }
  EXPECT_EQ(log->ThreadLastLsn(), 100u);
  log->WaitDurable(100);
  EXPECT_GE(log->DurableLsn(), 100u);
  EXPECT_EQ(log->stats().appends.load(), 100u);
  // Group commit coalesces: strictly fewer flushes than appends, and under
  // fsync=data every group costs exactly one fdatasync.
  EXPECT_GT(log->stats().groups.load(), 0u);
  EXPECT_LE(log->stats().groups.load(), 100u);
  EXPECT_EQ(log->stats().fsyncs.load(), log->stats().groups.load());
  log->Close();
}

TEST(ShardLogTest, AllFsyncModesReachDurability) {
  for (FsyncMode mode : {FsyncMode::kOff, FsyncMode::kData, FsyncMode::kFull}) {
    TempDir tmp;
    std::string error;
    auto log = ShardLog::Open(TestOptions(tmp.path(), mode), &error);
    ASSERT_NE(log, nullptr) << error;
    uint64_t last = 0;
    for (int i = 0; i < 10; ++i) last = log->AppendInsert(i, i);
    log->WaitDurable(last);
    EXPECT_GE(log->DurableLsn(), last);
    if (mode == FsyncMode::kOff) {
      EXPECT_EQ(log->stats().fsyncs.load(), 0u);
    } else {
      EXPECT_GT(log->stats().fsyncs.load(), 0u);
    }
    log->Close();
  }
}

TEST(ShardLogTest, ConcurrentAppendersGetUniqueDenseLsns) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kOff), &error);
  ASSERT_NE(log, nullptr) << error;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t lsn = (i % 5 == 0) ? log->AppendDelete(t * kPerThread + i)
                                    : log->AppendInsert(t * kPerThread + i, i);
        lsns[t].push_back(lsn);
        // Each thread's own LSNs are strictly increasing, and the TLS mirror
        // tracks the latest one.
        EXPECT_EQ(log->ThreadLastLsn(), lsn);
      }
      log->WaitDurable(log->ThreadLastLsn());
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<uint64_t> all;
  for (const auto& per_thread : lsns) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i + 1) << "LSN sequence must be dense from 1";
  }
  EXPECT_EQ(log->stats().appends.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
  log->Close();
}

TEST(ShardLogTest, SegmentRotationSplitsTheLog) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kOff);
  // Tiny segments: every few records force a rotation.
  options.segment_bytes = 4 * kRecordFrameSize;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) last = log->AppendInsert(i, i);
  log->WaitDurable(last);
  log->Close();
  EXPECT_GT(log->stats().rotations.load(), 10u);
}

TEST(ShardLogTest, StartLsnContinuesSequence) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kOff);
  options.start_lsn = 501;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(log->AppendInsert(1, 1), 501u);
  EXPECT_EQ(log->AppendInsert(2, 2), 502u);
  log->Close();
}

TEST(ShardLogTest, CloseIsIdempotentAndFlushes) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kData), &error);
  ASSERT_NE(log, nullptr) << error;
  uint64_t last = 0;
  for (int i = 0; i < 32; ++i) last = log->AppendInsert(i, i);
  log->Close();
  EXPECT_GE(log->DurableLsn(), last) << "Close must flush the buffered tail";
  log->Close();  // second Close is a no-op
}

TEST(ShardLogTest, SyncAllCoversEveryThread) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kData), &error);
  ASSERT_NE(log, nullptr) << error;
  std::atomic<uint64_t> max_lsn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        uint64_t lsn = log->AppendInsert(i, i);
        uint64_t seen = max_lsn.load();
        while (lsn > seen && !max_lsn.compare_exchange_weak(seen, lsn)) {
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  log->SyncAll();
  EXPECT_GE(log->DurableLsn(), max_lsn.load());
  log->Close();
}

TEST(ShardLogTest, WhenDurableRunsInlineWhenAlreadyDurable) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kOff), &error);
  ASSERT_NE(log, nullptr) << error;
  // LSN 0 (a batch that appended nothing) never waits.
  bool ran = false;
  log->WhenDurable(0, [&] { ran = true; });
  EXPECT_TRUE(ran);
  // Registered after the advance: runs on the calling thread, before
  // WhenDurable returns.
  const uint64_t lsn = log->AppendInsert(1, 1);
  log->WaitDurable(lsn);
  ran = false;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  log->WhenDurable(lsn, [&] {
    ran = true;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_on, caller);
  log->Close();
}

TEST(ShardLogTest, WhenDurableParksUntilTheAdvanceCoversIt) {
  TempDir tmp;
  std::string error;
  obs::Registry registry;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
  // A long coalescing window: the registration below always lands before
  // the writer's advance.
  options.group_commit_us = 100000;
  options.registry = &registry;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;

  const uint64_t lsn = log->AppendInsert(7, 70);
  std::atomic<bool> ran{false};
  std::atomic<uint64_t> durable_at_run{0};
  std::thread::id ran_on;
  log->WhenDurable(lsn, [&] {
    durable_at_run.store(log->DurableLsn());
    ran_on = std::this_thread::get_id();
    ran.store(true, std::memory_order_release);
  });
  // Parked, not run: the caller returns at once.
  EXPECT_LT(log->DurableLsn(), lsn);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ran.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(ran.load(std::memory_order_acquire));
  EXPECT_GE(durable_at_run.load(), lsn)
      << "a parked callback ran before its LSN was durable";
  EXPECT_NE(ran_on, std::this_thread::get_id())
      << "a parked callback runs on the writer thread";
#if CBTREE_OBS_ENABLED
  // The parked wait is the durable wait: it lands in wal.sync_wait_ns.
  const obs::Snapshot snapshot = registry.Read();
  const auto it = snapshot.timers.find("wal.sync_wait_ns.s0");
  ASSERT_NE(it, snapshot.timers.end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_GE(it->second.total_ns, 50000000u)
      << "recorded from registration to callback";
#endif
  log->Close();
}

TEST(ShardLogTest, CloseReleasesParkedCallbacks) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
  options.group_commit_us = 10000000;  // only Close cuts the window short
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  constexpr int kParked = 16;
  std::atomic<int> ran{0};
  std::atomic<int> early{0};
  for (int i = 0; i < kParked; ++i) {
    const uint64_t lsn = log->AppendInsert(i, i);
    log->WhenDurable(lsn, [&, lsn] {
      if (log->DurableLsn() < lsn) early.fetch_add(1);
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(ran.load(), 0);
  log->Close();  // flushes the tail, then releases every parked callback
  EXPECT_EQ(ran.load(), kParked);
  EXPECT_EQ(early.load(), 0);
}

// Many registrants race the writer's advances: each appends and registers
// at once (before, during or after the advance that covers it), and some
// re-register on an older, probably durable LSN. Every callback must run
// exactly once, and never before its LSN is durable. Under TSAN this is
// the parked-list race test.
TEST(ShardLogTest, WhenDurableRegistrantsRaceTheWriter) {
  TempDir tmp;
  std::string error;
  // fsync=data keeps each barrier long enough that many registrations land
  // between a group's cut and its advance, for LSNs the group does not hold.
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
  options.group_commit_us = 20;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<int> ran{0};
  std::atomic<int> early{0};
  std::vector<std::thread> threads;
  int registered = 0;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t older = 0;
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t lsn =
            log->AppendInsert(static_cast<Key>(t * kPerThread + i), i);
        const uint64_t wait_on = (i % 4 == 3) ? older : lsn;
        log->WhenDurable(wait_on, [&, wait_on] {
          if (log->DurableLsn() < wait_on) early.fetch_add(1);
          ran.fetch_add(1);
        });
        if (i % 8 == 0) older = lsn;
        // Spread the appends over many group cycles.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
    registered += kPerThread;
  }
  for (auto& thread : threads) thread.join();
  log->Close();  // joins the writer: every parked callback has run
  EXPECT_EQ(ran.load(), registered);
  EXPECT_EQ(early.load(), 0);
  EXPECT_GE(log->DurableLsn(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// The coalescing window runs from a group's first append, not from when
// the writer gets to it: a record appended while the writer is busy
// releasing the previous group waits one window in total, not the rest of
// the release plus a whole window.
TEST(ShardLogTest, WindowStartsAtTheGroupsFirstAppend) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kOff);
  options.group_commit_us = 100000;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;

  std::atomic<bool> releasing{false};
  log->WhenDurable(log->AppendInsert(1, 1), [&] {
    releasing.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!releasing.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(releasing.load(std::memory_order_acquire));

  // The writer is inside the 60 ms callback: this record opens the next
  // group while nobody is watching the clock for it.
  const auto appended = std::chrono::steady_clock::now();
  const uint64_t second = log->AppendInsert(2, 2);
  log->WaitDurable(second);
  const auto waited = std::chrono::steady_clock::now() - appended;
  EXPECT_GE(waited, std::chrono::milliseconds(100))
      << "a lone record still waits out its whole window";
  // Counted from the writer's wake-up it would be ~160 ms.
  EXPECT_LT(waited, std::chrono::milliseconds(140))
      << "the window must start at the group's first append";
  log->Close();
}

TEST(ShardLogTest, SegmentsArePreallocatedAndTrimmedWhenSealed) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
  options.segment_bytes = 1 << 20;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  uint64_t last = 0;
  for (int i = 0; i < 10; ++i) last = log->AppendInsert(i, i);
  log->WaitDurable(last);
  const std::string segment = tmp.path() + "/" + SegmentFileName(1);
  // Open sized the file up front: appends land inside it.
  EXPECT_EQ(FileSize(segment), 1 << 20);
  log->Close();
  // A clean Close leaves exactly what was written, no zero tail.
  EXPECT_EQ(FileSize(segment),
            static_cast<long>(kSegmentHeaderSize + 10 * kRecordFrameSize));
  const RecoveryResult recovered = Recover(tmp.path());
  EXPECT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.records, 10u);
  EXPECT_EQ(recovered.truncated_bytes, 0u);
  EXPECT_EQ(recovered.preallocated_bytes, 0u);
}

TEST(ShardLogTest, RotationSealsEverySegmentAtItsWrittenLength) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kOff);
  options.segment_bytes = 4096;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  constexpr int kRecords = 1000;
  for (int i = 0; i < kRecords; ++i) log->AppendInsert(i, i);
  log->Close();
  const std::vector<long> sizes = SegmentSizes(tmp.path());
  ASSERT_GT(sizes.size(), 5u);
  long record_bytes = 0;
  for (long size : sizes) {
    EXPECT_LE(size, 4096);
    EXPECT_EQ((size - static_cast<long>(kSegmentHeaderSize)) %
                  static_cast<long>(kRecordFrameSize),
              0);
    record_bytes += size - static_cast<long>(kSegmentHeaderSize);
  }
  EXPECT_EQ(record_bytes, kRecords * static_cast<long>(kRecordFrameSize))
      << "sealed segments hold their records and nothing else";
}

// Write-side fault injection: every syscall the writer makes goes through
// WalSyscalls, so a test can make it fail the way a real disk or kernel
// does.

TEST(ShardLogFaultTest, ShortWritesAndEintrAreRetriedToCompletion) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
  options.segment_bytes = 4096;  // rotations, so headers go through it too
  std::atomic<int> calls{0};
  std::atomic<int> interrupted{0};
  std::atomic<int> short_writes{0};
  options.syscalls.write = [&](int fd, const void* data,
                               size_t size) -> ssize_t {
    if (calls.fetch_add(1) % 3 == 0) {
      interrupted.fetch_add(1);
      errno = EINTR;
      return -1;
    }
    // Never more than 7 bytes at a time: every record and header is split.
    const size_t n = std::min<size_t>(size, 7);
    if (n < size) short_writes.fetch_add(1);
    return ::write(fd, data, n);
  };
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  constexpr int kRecords = 300;
  uint64_t last = 0;
  for (int i = 1; i <= kRecords; ++i) last = log->AppendInsert(i, 2 * i);
  log->WaitDurable(last);
  log->Close();
  EXPECT_GT(interrupted.load(), 0);
  EXPECT_GT(short_writes.load(), 0);

  uint64_t expected_lsn = 1;
  const RecoveryResult recovered =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, expected_lsn++);
        EXPECT_EQ(record.key, static_cast<Key>(record.lsn));
        EXPECT_EQ(record.value, static_cast<Value>(2 * record.lsn));
      });
  EXPECT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(recovered.truncated_bytes, 0u);
}

TEST(ShardLogFaultTest, FallocateFailureFallsBackToGrowth) {
  for (const int failure : {EOPNOTSUPP, ENOSPC}) {
    TempDir tmp;
    std::string error;
    WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
    options.segment_bytes = 4096;
    std::atomic<int> refused{0};
    options.syscalls.fallocate = [&](int, off_t) {
      refused.fetch_add(1);
      errno = failure;
      return -1;
    };
    auto log = ShardLog::Open(options, &error);
    ASSERT_NE(log, nullptr) << error;
    uint64_t last = 0;
    for (int i = 0; i < 10; ++i) last = log->AppendInsert(i, i);
    log->WaitDurable(last);
    // Not preallocated: the open segment is exactly as long as its writes.
    EXPECT_EQ(FileSize(tmp.path() + "/" + SegmentFileName(1)),
              static_cast<long>(kSegmentHeaderSize + 10 * kRecordFrameSize));
    constexpr int kRecords = 500;  // spans many segments
    for (int i = 10; i < kRecords; ++i) last = log->AppendInsert(i, i);
    log->WaitDurable(last);
    log->Close();
    EXPECT_GT(refused.load(), 1) << "every segment asks for preallocation";

    const RecoveryResult recovered = Recover(tmp.path());
    EXPECT_TRUE(recovered.ok) << recovered.error;
    EXPECT_EQ(recovered.records, static_cast<uint64_t>(kRecords));
    EXPECT_EQ(recovered.max_lsn, static_cast<uint64_t>(kRecords));
    EXPECT_EQ(recovered.truncated_bytes, 0u);
    EXPECT_EQ(recovered.preallocated_bytes, 0u);
  }
}

// A failed barrier cannot be acknowledged: the writer aborts the process
// before it advances the watermark, so no parked callback (no ack) runs.
// The callback would exit with status 3 instead of dying by SIGABRT.
TEST(ShardLogFaultDeathTest, FailedBarrierAbortsBeforeAnyRelease) {
  TempDir tmp;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kData);
  // Long enough that the callback is parked before the group is flushed.
  options.group_commit_us = 100000;
  options.syscalls.sync = [](int) {
    errno = EIO;
    return -1;
  };
  EXPECT_EXIT(
      {
        std::string error;
        auto log = ShardLog::Open(options, &error);
        if (log == nullptr) std::_Exit(2);
        const uint64_t lsn = log->AppendInsert(1, 1);
        log->WhenDurable(lsn, [] { std::_Exit(3); });
        log->WaitDurable(lsn);
        std::_Exit(4);
      },
      ::testing::KilledBySignal(SIGABRT), "group flush failed");
}

TEST(ShardLogTest, OpenFailsOnUnwritableDirectory) {
  std::string error;
  WalOptions options = TestOptions("/proc/cbtree-no-such-dir/wal", //
                                   FsyncMode::kOff);
  auto log = ShardLog::Open(options, &error);
  EXPECT_EQ(log, nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace wal
}  // namespace cbtree
