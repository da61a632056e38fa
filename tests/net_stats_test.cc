// Tests for the live-serving observability plane: snapshot diffing and
// retention (obs/snapshot), the kStats admin frame over a live socket, the
// periodic interval ticker's exact telescoping reconciliation under
// concurrent load, the per-shard stage-histogram sum identity, sampled
// stage waterfalls, and the Prometheus text listener. The OBS=OFF branches
// prove the plane compiles out: kStats still answers (functional atomics)
// while the registry-backed machinery reports nothing.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "ctree/ctree.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

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

// ---------------------------------------------------------------------------
// obs::Subtract semantics.

TEST(SnapshotSubtractTest, CountersDiffAndClampGaugesKeepCurrent) {
  obs::Snapshot prev;
  prev.counters["a"] = 10;
  prev.counters["shrank"] = 100;
  prev.counters["prev_only"] = 7;
  prev.gauges["g"] = 42;
  obs::Snapshot cur;
  cur.counters["a"] = 25;
  cur.counters["shrank"] = 90;  // racy read: must clamp, never wrap
  cur.counters["cur_only"] = 3;
  cur.gauges["g"] = -5;

  const obs::Snapshot delta = obs::Subtract(cur, prev);
  EXPECT_EQ(delta.counters.at("a"), 15u);
  EXPECT_EQ(delta.counters.at("shrank"), 0u);
  EXPECT_EQ(delta.counters.at("cur_only"), 3u);
  EXPECT_EQ(delta.counters.count("prev_only"), 0u);  // dropped, not negative
  EXPECT_EQ(delta.gauges.at("g"), -5);               // instantaneous
}

TEST(SnapshotSubtractTest, TimersDiffCountTotalBucketsButKeepCurrentMax) {
  obs::TimerSnapshot prev_t;
  prev_t.count = 4;
  prev_t.total_ns = 1000;
  prev_t.max_ns = 900;
  prev_t.buckets.assign(obs::kTimerBuckets, 0);
  prev_t.buckets[5] = 4;
  obs::TimerSnapshot cur_t;
  cur_t.count = 10;
  cur_t.total_ns = 5000;
  cur_t.max_ns = 1200;
  cur_t.buckets.assign(obs::kTimerBuckets, 0);
  cur_t.buckets[5] = 7;
  cur_t.buckets[8] = 3;

  obs::Snapshot prev;
  prev.timers["t"] = prev_t;
  obs::Snapshot cur;
  cur.timers["t"] = cur_t;

  const obs::Snapshot delta = obs::Subtract(cur, prev);
  const obs::TimerSnapshot& d = delta.timers.at("t");
  EXPECT_EQ(d.count, 6u);
  EXPECT_EQ(d.total_ns, 4000u);
  EXPECT_EQ(d.max_ns, 1200u);  // high-water mark cannot be diffed
  EXPECT_EQ(d.buckets[5], 3u);
  EXPECT_EQ(d.buckets[8], 3u);
}

// ---------------------------------------------------------------------------
// SnapshotRing retention and telescoping.

TEST(SnapshotRingTest, FirstRecordDiffsAgainstZero) {
  obs::SnapshotRing ring(8);
  obs::Snapshot s;
  s.counters["c"] = 17;
  const obs::IntervalSnapshot interval = ring.Record(0.5, s);
  EXPECT_EQ(interval.seq, 0u);
  EXPECT_EQ(interval.t_begin_s, 0.0);
  EXPECT_EQ(interval.t_end_s, 0.5);
  EXPECT_EQ(interval.delta.counters.at("c"), 17u);
  EXPECT_EQ(interval.cumulative.counters.at("c"), 17u);
}

TEST(SnapshotRingTest, EvictsOldestAndCountsDrops) {
  obs::SnapshotRing ring(4);
  for (int i = 1; i <= 10; ++i) {
    obs::Snapshot s;
    s.counters["c"] = static_cast<uint64_t>(i) * 10;
    ring.Record(static_cast<double>(i), s);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<obs::IntervalSnapshot> history = ring.History();
  ASSERT_EQ(history.size(), 4u);
  // Oldest first, contiguous tail of the sequence.
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].seq, 6u + i);
    EXPECT_EQ(history[i].delta.counters.at("c"), 10u);  // monotone steps
  }
  EXPECT_EQ(ring.last().seq, 9u);
}

TEST(SnapshotRingTest, IntervalDeltasTelescopeToCumulativeTotals) {
  obs::SnapshotRing ring(64);
  uint64_t cum = 0;
  for (int i = 0; i < 20; ++i) {
    cum += static_cast<uint64_t>(i) * 3 + 1;  // irregular increments
    obs::Snapshot s;
    s.counters["c"] = cum;
    ring.Record(static_cast<double>(i + 1), s);
  }
  uint64_t sum = 0;
  for (const obs::IntervalSnapshot& interval : ring.History()) {
    sum += interval.delta.counters.at("c");
  }
  EXPECT_EQ(sum, cum);  // exact, not approximate
}

// ---------------------------------------------------------------------------
// kStats admin frame over a live socket.

/// The exec/s column of shard `shard`'s row in a kStats table.
std::string ShardExecRate(const std::string& table, int shard) {
  const std::string prefix = "s" + std::to_string(shard) + " ";
  size_t at = table.find("\n" + prefix);
  if (at == std::string::npos) return "";
  std::istringstream row(table.substr(at + 1, table.find('\n', at + 1) - at));
  std::string name, executed, keys, inflight, rate;
  row >> name >> executed >> keys >> inflight >> rate;
  return rate;
}

TEST(NetStatsTest, ShardRateIsNotApplicableBeforeAnInterval) {
  // No interval ticker: there is no rate to report, and zero would claim
  // an idle shard.
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(1, 10), Status::kInserted);
  const std::optional<std::string> table = client.Stats(StatsFormat::kTable);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(ShardExecRate(*table, 0), "n/a") << *table;
  client.Close();
  server.Shutdown();
}

#if CBTREE_OBS_ENABLED
TEST(NetStatsTest, ShardRateIsANumberOnceAnIntervalExists) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.stats_interval_s = 0.02;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(1, 10), Status::kInserted);
  std::string rate = "n/a";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rate == "n/a" && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::optional<std::string> table =
        client.Stats(StatsFormat::kTable);
    ASSERT_TRUE(table.has_value());
    rate = ShardExecRate(*table, 0);
  }
  ASSERT_FALSE(rate.empty());
  EXPECT_NE(rate, "n/a");
  EXPECT_GE(std::stod(rate), 0.0);
  client.Close();
  server.Shutdown();
}
#endif

TEST(NetStatsTest, StatsRoundTripJsonAndTable) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(1, 10), Status::kInserted);
  EXPECT_EQ(client.Search(1), 10);

  const std::optional<std::string> json = client.Stats(StatsFormat::kJson);
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("\"totals\""), std::string::npos);
  EXPECT_NE(json->find("\"completed\":2"), std::string::npos);
  EXPECT_NE(json->find("\"build\""), std::string::npos);
  EXPECT_NE(json->find("\"shards_detail\""), std::string::npos);
#if CBTREE_OBS_ENABLED
  EXPECT_NE(json->find("\"obs\":true"), std::string::npos);
#else
  EXPECT_NE(json->find("\"obs\":false"), std::string::npos);
#endif

  const std::optional<std::string> table = client.Stats(StatsFormat::kTable);
  ASSERT_TRUE(table.has_value());
  EXPECT_NE(table->find("cbtree serve"), std::string::npos);
  EXPECT_NE(table->find("build "), std::string::npos);
  EXPECT_NE(table->find("shard"), std::string::npos);

  // The admin plane still answers data requests afterwards on the same
  // connection.
  EXPECT_EQ(client.Search(1), 10);

  client.Close();
  server.Shutdown();
  const ServerStats stats = server.stats();
  // kStats frames are out-of-band: counted separately, absent from the
  // data-path accounting identity.
  EXPECT_EQ(stats.stats_requests, 2u);
  EXPECT_EQ(stats.requests_received, 3u);
  EXPECT_EQ(stats.completed, 3u);
  uint64_t loop_stats = 0;
  for (const LoopServerStats& loop : stats.loops) {
    loop_stats += loop.stats_requests;
  }
  EXPECT_EQ(loop_stats, stats.stats_requests);
}

// ---------------------------------------------------------------------------
// Interval reconciliation under concurrent load.

TEST(NetStatsTest, IntervalDeltasReconcileExactlyWithFinalTotals) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.shards = 2;
  options.stats_interval_s = 0.02;
  options.stats_ring = 4096;  // retain every interval of this short run
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      std::string thread_error;
      ASSERT_TRUE(
          client.Connect("127.0.0.1", server.port(), &thread_error))
          << thread_error;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key key = static_cast<Key>(t * kOpsPerThread + i + 1);
        ASSERT_TRUE(client.Insert(key, key).has_value());
        if (i % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);

#if CBTREE_OBS_ENABLED
  const std::vector<obs::IntervalSnapshot> history = server.history();
  ASSERT_FALSE(history.empty());

  // Sequence numbers and timestamps are strictly increasing; cumulative
  // counters never decrease.
  std::map<std::string, uint64_t> prev_counters;
  double prev_end = 0.0;
  for (size_t i = 0; i < history.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(history[i].seq, history[i - 1].seq + 1);
      EXPECT_EQ(history[i].t_begin_s, history[i - 1].t_end_s);
    }
    EXPECT_GE(history[i].t_end_s, prev_end);
    prev_end = history[i].t_end_s;
    for (const auto& [name, value] : history[i].cumulative.counters) {
      auto it = prev_counters.find(name);
      if (it != prev_counters.end()) {
        EXPECT_GE(value, it->second) << name;
      }
      prev_counters[name] = value;
    }
  }

  // The reconciliation identity: Shutdown records a final post-drain
  // interval, so for EVERY counter the interval deltas sum bit-exactly to
  // the final cumulative total (the ring kept every interval).
  ASSERT_EQ(history.front().seq, 0u);
  const obs::Snapshot& final_cum = history.back().cumulative;
  std::map<std::string, uint64_t> delta_sums;
  for (const obs::IntervalSnapshot& interval : history) {
    for (const auto& [name, value] : interval.delta.counters) {
      delta_sums[name] += value;
    }
  }
  for (const auto& [name, total] : final_cum.counters) {
    EXPECT_EQ(delta_sums[name], total) << name;
  }
  // And the observability plane agrees with the functional atomics.
  EXPECT_EQ(final_cum.counters.at("srv.completed"), stats.completed);
  EXPECT_EQ(final_cum.counters.at("srv.requests"), stats.requests_received);
#else
  // OBS=OFF compiles the ticker out: no intervals despite the option.
  EXPECT_TRUE(server.history().empty());
#endif
}

// ---------------------------------------------------------------------------
// Stage-histogram sum identity.

#if CBTREE_OBS_ENABLED
TEST(NetStatsTest, StageHistogramsTelescopeToEndToEndLatency) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.shards = 2;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  constexpr uint64_t kOps = 300;
  for (uint64_t i = 1; i <= kOps; ++i) {
    ASSERT_TRUE(client.Insert(static_cast<Key>(i), i).has_value());
  }
  client.Close();
  server.Shutdown();

  const obs::Snapshot snapshot = server.MergedSnapshot();
  const char* kStages[] = {"admit", "queue", "batch", "tree", "buffer",
                           "flush"};
  uint64_t total_count = 0;
  for (int s = 0; s < server.num_shards(); ++s) {
    const std::string suffix = "_ns.s" + std::to_string(s);
    const obs::TimerSnapshot& total =
        snapshot.timers.at("stage.total" + suffix);
    uint64_t stage_sum = 0;
    for (const char* stage : kStages) {
      const obs::TimerSnapshot& t =
          snapshot.timers.at(std::string("stage.") + stage + suffix);
      // A clean run flushes every response, so every stage saw every
      // request of this shard.
      EXPECT_EQ(t.count, total.count) << stage << " shard " << s;
      stage_sum += t.total_ns;
    }
    // The stages partition [admit, flushed] with shared endpoints, so their
    // masses telescope to the end-to-end total exactly, in integer ns.
    EXPECT_EQ(stage_sum, total.total_ns) << "shard " << s;
    // A batch runs on the loop that decoded it: nothing sits between its
    // submission and its start.
    EXPECT_EQ(snapshot.timers.at("stage.queue" + suffix).total_ns, 0u)
        << "shard " << s;
    total_count += total.count;
  }
  EXPECT_EQ(total_count, kOps);
}

// ---------------------------------------------------------------------------
// Sampled stage waterfalls.

class CapturingTraceSink : public obs::TraceSink {
 public:
  void Record(const obs::TraceEvent& event) override {
    MutexLock lock(&mutex_);
    events_.push_back(event);
  }
  std::vector<obs::TraceEvent> events() const {
    MutexLock lock(&mutex_);
    return events_;
  }

 private:
  mutable Mutex mutex_;
  std::vector<obs::TraceEvent> events_ CBTREE_GUARDED_BY(mutex_);
};

TEST(NetStatsTest, TraceSampleEmitsOneWaterfallPerSampledRequest) {
  CapturingTraceSink sink;
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.trace = &sink;
  options.trace_sample = 1;  // sample every admitted request
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  constexpr uint64_t kOps = 20;
  for (uint64_t i = 1; i <= kOps; ++i) {
    ASSERT_TRUE(client.Insert(static_cast<Key>(i), i).has_value());
  }
  client.Close();
  server.Shutdown();

  const std::set<std::string> kStages = {"admit",  "queue", "batch",
                                         "tree",   "buffer", "flush"};
  std::map<uint64_t, int> begins;
  std::map<uint64_t, int> ends;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.kind == obs::TraceEventKind::kStageBegin) {
      EXPECT_EQ(kStages.count(event.what), 1u) << event.what;
      ++begins[event.id];
    } else if (event.kind == obs::TraceEventKind::kStageEnd) {
      EXPECT_EQ(kStages.count(event.what), 1u) << event.what;
      EXPECT_GE(event.value, 0.0);
      ++ends[event.id];
    }
  }
  // Every request sampled: one full waterfall (6 begin/end pairs) each.
  EXPECT_EQ(begins.size(), kOps);
  EXPECT_EQ(ends.size(), kOps);
  for (const auto& [id, count] : begins) EXPECT_EQ(count, 6) << "id " << id;
  for (const auto& [id, count] : ends) EXPECT_EQ(count, 6) << "id " << id;
}
#endif  // CBTREE_OBS_ENABLED

// ---------------------------------------------------------------------------
// Prometheus text listener.

#if CBTREE_OBS_ENABLED
std::string HttpGet(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return {};
  }
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)!write(fd, request, sizeof(request) - 1);
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return out;
}

TEST(NetStatsTest, PrometheusListenerServesMergedSnapshot) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.stats_port = 0;  // ephemeral exposition port
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.stats_port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(5, 50), Status::kInserted);

  const std::string body = HttpGet(server.stats_port());
  EXPECT_NE(body.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(body.find("cbtree_srv_completed_total"), std::string::npos);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);

  client.Close();
  server.Shutdown();
}
#else   // !CBTREE_OBS_ENABLED
TEST(NetStatsTest, StatsListenerCompiledOutUnderObsOff) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.stats_port = 0;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(server.stats_port(), -1);  // listener never opened
  server.Shutdown();
}
#endif  // CBTREE_OBS_ENABLED

}  // namespace
}  // namespace net
}  // namespace cbtree
