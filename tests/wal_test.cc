// WAL format and group-commit log writer: encode/decode round-trips, CRC
// rejection, segment naming, and the ShardLog durability contract (dense
// LSNs, WaitDurable watermark, WhenDurable callbacks released by the
// writer, group coalescing, rotation, all three fsync modes, idempotent
// Close).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "wal/log_writer.h"
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
