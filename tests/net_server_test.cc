// In-process loopback integration tests for the net/ service layer: the
// epoll server over every real tree protocol, pipelining and out-of-order
// completion, malformed-frame handling over a live socket, backpressure at
// the admission budget, graceful drain, the open-loop driver's
// zero-lost-requests accounting, and WAL-backed serving whose acks the log
// writer releases once durable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ctree/ctree.h"
#include "net/client.h"
#include "net/driver.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shutdown.h"

namespace cbtree {
namespace net {
namespace {

ServerOptions LoopbackOptions(Algorithm algorithm) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.algorithm = algorithm;
  options.drain_timeout_ms = 10000;
  return options;
}

class NetServerAllProtocolsTest : public ::testing::TestWithParam<Algorithm> {
};

TEST_P(NetServerAllProtocolsTest, ServesTheFullOpSetOverLoopback) {
  Server server(LoopbackOptions(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  EXPECT_EQ(client.Insert(10, 100), Status::kInserted);
  EXPECT_EQ(client.Insert(10, 101), Status::kUpdated);
  EXPECT_EQ(client.Insert(20, 200), Status::kInserted);
  EXPECT_EQ(client.Search(10), 101);
  EXPECT_EQ(client.Search(999), std::nullopt);  // kNotFound
  EXPECT_EQ(client.Delete(10), Status::kDeleted);
  EXPECT_EQ(client.Delete(10), Status::kDeleteMiss);
  EXPECT_EQ(client.Search(20), 200);

  client.Close();
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.bad_frames, 0u);
  server.tree()->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, NetServerAllProtocolsTest,
    ::testing::Values(Algorithm::kNaiveLockCoupling,
                      Algorithm::kOptimisticDescent, Algorithm::kLinkType,
                      Algorithm::kTwoPhaseLocking, Algorithm::kOlc),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      switch (info.param) {
        case Algorithm::kNaiveLockCoupling:
          return std::string("naive");
        case Algorithm::kOptimisticDescent:
          return std::string("optimistic");
        case Algorithm::kLinkType:
          return std::string("link");
        case Algorithm::kTwoPhaseLocking:
          return std::string("two_phase");
        case Algorithm::kOlc:
          return std::string("olc");
      }
      return std::string("unknown");
    });

TEST(NetServerTest, PreloadMatchesTheStressKeySpace) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.preload_items = 1000;
  options.seed = 7;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  // Preload inserts 1000 uniform keys over [1, 2000]; collisions overwrite,
  // so the tree holds at most that many and a solid majority survive.
  EXPECT_LE(server.tree()->size(), 1000u);
  EXPECT_GE(server.tree()->size(), 700u);
  server.Shutdown();
}

TEST(NetServerTest, PipelinedRequestsAllComeBack) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // Fire a burst without reading; replies are matched by id.
  constexpr uint64_t kBurst = 200;
  for (uint64_t i = 0; i < kBurst; ++i) {
    Request request;
    request.op = OpCode::kInsert;
    request.id = i + 1;
    request.key = static_cast<Key>(i % 50);
    request.value = static_cast<Value>(i);
    ASSERT_TRUE(client.Send(request));
  }
  std::vector<bool> seen(kBurst + 1, false);
  for (uint64_t i = 0; i < kBurst; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response));
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, kBurst);
    EXPECT_FALSE(seen[response.id]) << "duplicate reply id " << response.id;
    seen[response.id] = true;
    EXPECT_TRUE(response.status == Status::kInserted ||
                response.status == Status::kUpdated);
  }
  client.Close();
  server.Shutdown();
  server.tree()->CheckInvariants();
}

TEST(NetServerTest, GarbageFrameGetsCleanErrorReplyAndClose) {
  Server server(LoopbackOptions(Algorithm::kOptimisticDescent));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // A frame with a hostile length prefix: the server must answer kBadFrame
  // and close — never crash, never buffer toward the bogus length.
  ASSERT_TRUE(client.SendRaw(std::string("\xff\xff\xff\x7f garbage", 12)));
  Response response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.status, Status::kBadFrame);
  EXPECT_EQ(response.id, 0u);
  // The connection is dead afterwards.
  EXPECT_EQ(client.ReceivePoll(&response, 2000), -1);
  client.Close();

  // The server is still healthy for new connections.
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(fresh.Insert(1, 1), Status::kInserted);
  fresh.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(NetServerTest, TruncatedFrameThenCloseIsHarmless) {
  Server server(LoopbackOptions(Algorithm::kNaiveLockCoupling));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // Half a valid frame, then half-close: the server just drops the prefix.
  Request request;
  request.op = OpCode::kInsert;
  request.id = 1;
  request.key = 5;
  std::string wire;
  AppendRequest(request, &wire);
  ASSERT_TRUE(client.SendRaw(wire.substr(0, wire.size() / 2)));
  client.CloseWrite();
  Response response;
  EXPECT_EQ(client.ReceivePoll(&response, 2000), -1);  // EOF, no reply
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_received, 0u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(NetServerTest, GarbageOpcodeInsideValidLengthIsABadFrame) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request request;
  request.op = OpCode::kSearch;
  request.id = 9;
  std::string wire;
  AppendRequest(request, &wire);
  wire[4] = '\x7f';  // invalid opcode, length still correct
  ASSERT_TRUE(client.SendRaw(wire));
  Response response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.status, Status::kBadFrame);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(NetServerTest, BackpressureRejectsBeyondTheAdmissionBudget) {
  // A loop holds the budget of every frame it takes in during one pass
  // over its ready connections until the pass ends, so a read holding more
  // frames than the budget rejects the excess. Each tree operation stalls
  // the loop, so whatever part of the burst the first read missed piles up
  // in the socket and arrives in one read. The second case has a budget
  // larger than a batch: the budget of answered batches must not come back
  // before the pass ends, or in-flight would never exceed one batch.
  struct Case {
    size_t max_inflight;
    size_t max_batch;
    int delay_ms;
    uint64_t burst;
  };
  for (const Case& c : {Case{8, 32, 50, 64}, Case{40, 4, 2, 200}}) {
    SCOPED_TRACE("max_inflight=" + std::to_string(c.max_inflight) +
                 " max_batch=" + std::to_string(c.max_batch));
    ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
    options.max_inflight = c.max_inflight;
    options.max_batch = c.max_batch;
    options.retry_hint_us = 777;
    const int delay_ms = c.delay_ms;
    options.exec_delay_hook = [delay_ms](const Request&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    };
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

    for (uint64_t i = 0; i < c.burst; ++i) {
      Request request;
      request.op = OpCode::kSearch;
      request.id = i + 1;
      request.key = 1;
      ASSERT_TRUE(client.Send(request));
    }
    uint64_t completed = 0, rejected = 0;
    for (uint64_t i = 0; i < c.burst; ++i) {
      Response response;
      ASSERT_TRUE(client.Receive(&response));
      if (response.status == Status::kRejected) {
        ++rejected;
        EXPECT_EQ(response.value, 777);  // retry hint rides in `value`
      } else {
        ++completed;
        EXPECT_EQ(response.status, Status::kNotFound);
      }
    }
    // Every request was answered exactly once, and the budget really did
    // both admit and shed load.
    EXPECT_EQ(completed + rejected, c.burst);
    EXPECT_GT(rejected, 0u);
    EXPECT_GE(completed, options.max_inflight);
    client.Close();
    server.Shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.rejected, rejected);
  }
}

TEST(NetServerTest, ConcurrentClientsKeepTheTreeConsistent) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        Key key = static_cast<Key>((c * kOpsPerClient + i) % 97);
        bool ok = false;
        switch (i % 3) {
          case 0:
            ok = client.Insert(key, key * 2).has_value();
            break;
          case 1:
            ok = client.Search(key).has_value() || true;  // miss is fine
            break;
          default:
            ok = client.Delete(key).has_value();
            break;
        }
        if (!ok) {
          failures.fetch_add(1);
          return;
        }
      }
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  server.Shutdown();
  server.tree()->CheckInvariants();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received,
            static_cast<uint64_t>(kClients) * kOpsPerClient);
  EXPECT_EQ(stats.completed, stats.requests_received);
}

TEST(NetServerTest, ShutdownAnswersNewFramesWithShuttingDown) {
  ServerOptions options = LoopbackOptions(Algorithm::kOptimisticDescent);
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(1, 1), Status::kInserted);

  // Trigger the drain from another thread; the server answers frames that
  // race the drain with kShuttingDown instead of dropping them.
  std::thread shutdown_thread([&] { server.Shutdown(); });
  Request request;
  request.op = OpCode::kSearch;
  request.id = 99;
  request.key = 1;
  Response response;
  while (client.Send(request)) {
    int rc = client.ReceivePoll(&response, 2000);
    if (rc != 1) break;  // connection closed by the drain
    if (response.status == Status::kShuttingDown) break;
    ASSERT_EQ(response.status, Status::kFound);
  }
  shutdown_thread.join();
  EXPECT_FALSE(server.running());
  client.Close();
}

TEST(NetServerTest, SignalDrainTriggerStopsServeUntil) {
  SignalDrain::Install();
  SignalDrain::ResetForTest();
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serving([&] { server.ServeUntil(SignalDrain::wake_fd()); });
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(3, 33), Status::kInserted);
  SignalDrain::Trigger();  // same path a SIGINT takes
  serving.join();
  EXPECT_FALSE(server.running());
  client.Close();
  SignalDrain::ResetForTest();
}

TEST(NetServerTest, DriverAccountingIsLossFree) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.preload_items = 2000;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  DriveOptions drive;
  drive.host = "127.0.0.1";
  drive.port = server.port();
  drive.lambda = 800.0;
  drive.duration_seconds = 1.0;
  drive.connections = 3;
  drive.key_space = 4000;
  drive.zipf_skew = 0.3;
  drive.seed = 11;
  DriveReport report = RunDrive(drive);
  ASSERT_TRUE(report.connect_ok) << report.error;

  // Zero lost requests: everything sent was either completed or rejected.
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.unanswered, 0u);
  EXPECT_EQ(report.sent, report.completed + report.rejected);
  EXPECT_GT(report.sent, 0u);
  EXPECT_GT(report.all.count(), 0u);
  EXPECT_GE(report.latencies.Quantile(0.99), report.latencies.Quantile(0.50));

  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, report.completed);
  EXPECT_EQ(stats.requests_received, report.sent);
  server.tree()->CheckInvariants();
}

TEST(NetServerTest, DriverSeesBackpressureAsRejectionsNotLosses) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.max_inflight = 4;
  options.exec_delay_hook = [](const Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  DriveOptions drive;
  drive.host = "127.0.0.1";
  drive.port = server.port();
  // Offered load (~400/s) far beyond service capacity (one loop * 50/s):
  // while the loop runs a pass, arrivals pile up in the sockets, and the
  // next pass admits at most 4 of them and rejects the rest. The open-loop
  // driver must keep sending and count rejections, not stall.
  drive.lambda = 400.0;
  drive.duration_seconds = 1.0;
  drive.connections = 2;
  drive.key_space = 100;
  drive.seed = 5;
  DriveReport report = RunDrive(drive);
  ASSERT_TRUE(report.connect_ok) << report.error;

  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.unanswered, 0u);
  EXPECT_EQ(report.sent, report.completed + report.rejected);
  EXPECT_GT(report.rejected, 0u);  // saturation really happened
  EXPECT_GT(report.completed, 0u);
  server.Shutdown();
}

// drive's percentiles come from its latency histogram; at loopback
// latencies (tens of us) they must be exact to 2%, not bucket-width
// guesses.
TEST(DriveLatencyHistogramTest, PercentilesOfAKnownSampleWithinTwoPercent) {
  // Two known samples: 1..10000 us uniform, and a geometric spread from
  // 10 us to ~1 s in shuffled order.
  std::vector<std::vector<double>> samples(2);
  for (int k = 1; k <= 10000; ++k) samples[0].push_back(k * 1e-6);
  for (int k = 0; k < 20000; ++k) {
    samples[1].push_back(10e-6 * std::pow(1.000575, (k * 7919) % 20000));
  }
  for (const std::vector<double>& sample : samples) {
    Histogram hist = LatencyHistogram(DriveOptions().histogram_limit_seconds);
    for (double v : sample) hist.Add(v);
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.50, 0.99}) {
      const size_t rank = static_cast<size_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      const double exact = sorted[rank - 1];
      EXPECT_NEAR(hist.Quantile(q), exact, 0.02 * exact) << "q=" << q;
    }
  }
}

/// Unique scratch WAL directory, removed (recursively) on scope exit.
class TempWalDir {
 public:
  TempWalDir() {
    char tmpl[] = "/tmp/cbtree_net_wal_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempWalDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "TempWalDir cleanup failed: %s\n", path_.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ServerOptions WalServerOptions(const std::string& dir,
                               RecoveryPolicy retention,
                               uint32_t group_commit_us) {
  ServerOptions options = LoopbackOptions(Algorithm::kOlc);
  options.wal_dir = dir;
  options.wal_fsync = wal::FsyncMode::kData;
  options.wal_group_commit_us = group_commit_us;
  options.wal_retention = retention;
  return options;
}

/// Polls `done` for up to 10 s.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// One shard, one loop, a 200 ms group-commit window: a write batch's ack
// parks on the log, and the lone loop is free to answer a read-only batch
// from another connection while the write still waits for its barrier.
TEST(NetServerWalTest, ReadsAreAnsweredWhileAWriteWaitsForDurability) {
  TempWalDir dir;
  ServerOptions options = WalServerOptions(
      dir.path(), RecoveryPolicy::kNone, /*group_commit_us=*/200000);
  options.shards = 1;
  options.loops = 1;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const wal::ShardLog* log = server.wal_log(0);
  ASSERT_NE(log, nullptr);

  Client writer;
  Client reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(reader.Connect("127.0.0.1", server.port(), &error)) << error;
  Request insert;
  insert.op = OpCode::kInsert;
  insert.id = 1;
  insert.key = 5;
  insert.value = 50;
  ASSERT_TRUE(writer.Send(insert));
  // The write has executed (its record is appended) before the read goes in.
  ASSERT_TRUE(WaitFor([&] { return log->stats().appends.load() == 1; }));
  const uint64_t write_lsn = 1;

  Request search;
  search.op = OpCode::kSearch;
  search.id = 2;
  search.key = 7;
  ASSERT_TRUE(reader.Send(search));
  Response response;
  ASSERT_EQ(reader.ReceivePoll(&response, 10000), 1);
  EXPECT_EQ(response.id, 2u);
  EXPECT_EQ(response.status, Status::kNotFound);
  // The read came back while the write was still short of durable, and the
  // write's ack has not gone out.
  EXPECT_LT(log->DurableLsn(), write_lsn);
  EXPECT_EQ(writer.ReceivePoll(&response, 0), 0);

  ASSERT_EQ(writer.ReceivePoll(&response, 10000), 1);
  EXPECT_EQ(response.id, 1u);
  EXPECT_EQ(response.status, Status::kInserted);
  EXPECT_GE(log->DurableLsn(), write_lsn)
      << "a write was acknowledged before its LSN was durable";
  writer.Close();
  reader.Close();
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.wal.appends, 1u);
}

// --recovery=leaf|naive keep the paper's latch-held wait in the tree: the
// batch's LSN is durable by the time the pass ends, and the ack goes out
// right away — still never before the barrier.
TEST(NetServerWalTest, LatchHeldRetentionRepliesOnlyAfterDurable) {
  for (RecoveryPolicy retention :
       {RecoveryPolicy::kLeafOnly, RecoveryPolicy::kNaive}) {
    TempWalDir dir;
    ServerOptions options = WalServerOptions(dir.path(), retention,
                                             /*group_commit_us=*/20000);
    options.shards = 1;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    const wal::ShardLog* log = server.wal_log(0);
    ASSERT_NE(log, nullptr);
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    for (uint64_t i = 1; i <= 5; ++i) {
      EXPECT_EQ(client.Insert(static_cast<Key>(i), 1), Status::kInserted);
      EXPECT_GE(log->DurableLsn(), i)
          << "write " << i << " acknowledged before durable under "
          << RecoveryPolicyName(retention);
    }
    client.Close();
    server.Shutdown();
    EXPECT_EQ(server.stats().wal.appends, 5u);
  }
}

// A SIGTERM-path drain while acks are parked on the logs: the drain waits
// for the writers to release them, every admitted request is answered, and
// the accounting identity holds.
TEST(NetServerWalTest, DrainWithParkedAcksAnswersEveryAdmittedRequest) {
  SignalDrain::Install();
  SignalDrain::ResetForTest();
  TempWalDir dir;
  ServerOptions options = WalServerOptions(
      dir.path(), RecoveryPolicy::kNone, /*group_commit_us=*/500000);
  options.shards = 2;
  options.loops = 2;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serving([&] { server.ServeUntil(SignalDrain::wake_fd()); });

  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 20;
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port(), &error))
        << error;
    for (uint64_t i = 0; i < kPerClient; ++i) {
      Request request;
      request.op = OpCode::kInsert;
      request.id = i + 1;
      request.key = static_cast<Key>(c * kPerClient + i + 1);
      request.value = 1;
      ASSERT_TRUE(clients[c].Send(request));
    }
  }
  // Every write executed and appended, none durable yet: all acks parked.
  auto appended = [&] {
    return server.wal_log(0)->stats().appends.load() +
           server.wal_log(1)->stats().appends.load();
  };
  ASSERT_TRUE(WaitFor([&] { return appended() == kClients * kPerClient; }));
  EXPECT_EQ(server.wal_log(0)->DurableLsn() + server.wal_log(1)->DurableLsn(),
            0u);
  SignalDrain::Trigger();  // same path a SIGTERM takes

  uint64_t acked = 0;
  for (Client& client : clients) {
    for (uint64_t i = 0; i < kPerClient; ++i) {
      Response response;
      ASSERT_EQ(client.ReceivePoll(&response, 10000), 1);
      EXPECT_EQ(response.status, Status::kInserted);
      ++acked;
    }
    client.Close();
  }
  serving.join();
  EXPECT_FALSE(server.running());
  const ServerStats stats = server.stats();
  EXPECT_EQ(acked, kClients * kPerClient);
  EXPECT_EQ(stats.completed, acked);
  EXPECT_EQ(stats.requests_received,
            stats.completed + stats.rejected + stats.shutdown_rejected);
  EXPECT_GE(server.wal_log(0)->DurableLsn() + server.wal_log(1)->DurableLsn(),
            acked);
  SignalDrain::ResetForTest();
}

// A drain that times out while acks are still parked: the group-commit
// window (2 s) outlasts the drain deadline (100 ms), so every loop exits
// with its connections' acks still on the logs. Shutdown closes the logs,
// which release the acks into inboxes no loop will read again; Shutdown
// then completes them itself, counted, sending nothing (the ASan and TSAN
// runs of this suite check that no ack touches a closed connection).
TEST(NetServerWalTest, DrainTimeoutCompletesParkedAcksInShutdown) {
  TempWalDir dir;
  ServerOptions options = WalServerOptions(
      dir.path(), RecoveryPolicy::kNone, /*group_commit_us=*/2000000);
  options.shards = 2;
  options.loops = 2;
  options.force_accept_round_robin = true;  // connections alternate loops
  options.drain_timeout_ms = 100;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 10;
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port(), &error))
        << error;
    for (uint64_t i = 0; i < kPerClient; ++i) {
      Request request;
      request.op = OpCode::kInsert;
      request.id = i + 1;
      request.key = static_cast<Key>(c * kPerClient + i + 1);
      request.value = 1;
      ASSERT_TRUE(clients[c].Send(request));
    }
  }
  auto appended = [&] {
    return server.wal_log(0)->stats().appends.load() +
           server.wal_log(1)->stats().appends.load();
  };
  ASSERT_TRUE(WaitFor([&] { return appended() == kClients * kPerClient; }));
  const ServerStats before = server.stats();
  EXPECT_GT(before.loops[0].requests_received, 0u);
  EXPECT_GT(before.loops[1].requests_received, 0u);
  EXPECT_EQ(before.completed, 0u) << "an ack left before its barrier";

  const auto started = std::chrono::steady_clock::now();
  server.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
  EXPECT_FALSE(server.running());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.requests_received,
            stats.completed + stats.rejected + stats.shutdown_rejected);
  EXPECT_EQ(server.MergedSnapshot().gauges.at("srv.in_flight"), 0);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(server.wal_log(s)->DurableLsn(),
              server.wal_log(s)->stats().appends.load())
        << "shard " << s << " left an appended record short of durable";
  }
  // The acks were parked past the deadline, so none went out: every
  // connection was closed with its replies unsent.
  for (Client& client : clients) {
    Response response;
    EXPECT_EQ(client.ReceivePoll(&response, 1000), -1);
  }
}

// One loop, two shards with their own logs, a 200 ms window: a write parked
// on shard A's log does not hold up a read of shard B, and each write is
// acknowledged only after its own log's barrier. The loop appends to both
// logs, so each batch's LSN must come from the log it wrote.
TEST(NetServerWalTest, OneLoopServesTwoShardLogs) {
  TempWalDir dir;
  ServerOptions options = WalServerOptions(
      dir.path(), RecoveryPolicy::kNone, /*group_commit_us=*/200000);
  options.shards = 2;
  options.loops = 1;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Key key_a = 1;
  while (ShardOfKey(key_a, 2) != 0) ++key_a;
  Key key_b = key_a + 1;
  while (ShardOfKey(key_b, 2) != 1) ++key_b;
  const wal::ShardLog* log_a = server.wal_log(0);
  const wal::ShardLog* log_b = server.wal_log(1);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request write_a;
  write_a.op = OpCode::kInsert;
  write_a.id = 1;
  write_a.key = key_a;
  write_a.value = 10;
  ASSERT_TRUE(client.Send(write_a));
  ASSERT_TRUE(WaitFor([&] { return log_a->stats().appends.load() == 1; }));

  Request read_b;
  read_b.op = OpCode::kSearch;
  read_b.id = 2;
  read_b.key = key_b;
  ASSERT_TRUE(client.Send(read_b));
  Response response;
  ASSERT_EQ(client.ReceivePoll(&response, 10000), 1);
  EXPECT_EQ(response.id, 2u);
  EXPECT_EQ(response.status, Status::kNotFound);
  EXPECT_LT(log_a->DurableLsn(), 1u)
      << "the read waited for shard A's barrier";

  Request write_b;
  write_b.op = OpCode::kInsert;
  write_b.id = 3;
  write_b.key = key_b;
  write_b.value = 30;
  ASSERT_TRUE(client.Send(write_b));
  ASSERT_TRUE(WaitFor([&] { return log_b->stats().appends.load() == 1; }));
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(client.ReceivePoll(&response, 10000), 1);
    EXPECT_EQ(response.status, Status::kInserted);
    if (response.id == 1) {
      EXPECT_GE(log_a->DurableLsn(), 1u)
          << "shard A's write acknowledged before its barrier";
    } else {
      EXPECT_EQ(response.id, 3u);
      EXPECT_GE(log_b->DurableLsn(), 1u)
          << "shard B's write acknowledged before its barrier";
    }
  }
  client.Close();
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.wal.appends, 2u);
  EXPECT_EQ(stats.shards[0].tree_size, 1u);
  EXPECT_EQ(stats.shards[1].tree_size, 1u);
}

}  // namespace
}  // namespace net
}  // namespace cbtree
