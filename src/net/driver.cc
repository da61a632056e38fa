#include "net/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/build_info.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "net/client.h"
#include "runner/experiment.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "workload/workload.h"

namespace cbtree {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct PendingOp {
  OpCode op = OpCode::kSearch;
  int shard = 0;           ///< ShardOfKey(key, options.shards)
  double scheduled = 0.0;  ///< seconds since schedule zero
};

/// One connection's sender+receiver pair and its locally folded results.
/// The Client is used concurrently by exactly two threads — the sender only
/// writes, the receiver only reads — which is safe on one TCP socket.
struct ConnDriver {
  Client client;
  std::atomic<bool> sender_done{false};
  std::atomic<bool> transport_error{false};

  Mutex mu;
  std::unordered_map<uint64_t, PendingOp> outstanding CBTREE_GUARDED_BY(mu);

  // Receiver/sender-local results; merged by the main thread after joins.
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t unanswered = 0;
  std::vector<uint64_t> shard_sent;       ///< sender thread only
  std::vector<uint64_t> shard_completed;  ///< receiver thread only
  Accumulator search, insert, del, all, send_lag;
  Histogram latencies;
  TimeWeightedAccumulator active;
  double last_event = 0.0;  ///< latest time fed to `active`

  void RecordActiveLocked(double now) CBTREE_REQUIRES(mu) {
    // `now` is sampled before mu is acquired, so under contention the peer
    // thread may have fed a later stamp while this one waited for the lock.
    // Clamp instead of feeding time backwards (the accumulator checks
    // monotonicity); the integral error is bounded by the lock wait.
    if (now < last_event) now = last_event;
    active.Update(now, static_cast<double>(outstanding.size()));
    if (now > last_event) last_event = now;
  }
};

void TraceRequest(obs::TraceSink* trace, obs::TraceEventKind kind,
                  uint64_t id, OpCode op, double time, double value) {
  if (trace == nullptr) return;
  obs::TraceEvent event;
  event.time = time;
  event.kind = kind;
  event.id = id;
  event.what = OpCodeName(op);
  event.value = value;
  trace->Record(event);
}

void SenderLoop(const DriveOptions& options, int index, ConnDriver* conn,
                Clock::time_point start) {
  // Splitting Poisson(lambda) into `connections` independent
  // Poisson(lambda/N) streams keeps the aggregate arrival process exactly
  // Poisson — the superposition property the paper's open model assumes.
  PoissonProcess arrivals(
      options.lambda / std::max(1, options.connections),
      options.seed * 0x9e3779b97f4a7c15ull + 17 * index + 1);
  Rng op_rng(options.seed * 0x2545f4914f6cdd1dull + 1000003ull * index + 7);
  const uint64_t stride = static_cast<uint64_t>(options.connections);
  uint64_t id = static_cast<uint64_t>(index) + 1;
  for (;;) {
    double scheduled = arrivals.NextArrival();
    if (scheduled > options.duration_seconds) break;
    if (conn->transport_error.load(std::memory_order_acquire)) break;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(scheduled)));

    Request request;
    request.id = id;
    double u = op_rng.NextDouble();
    if (u < options.mix.q_s) {
      request.op = OpCode::kSearch;
      request.key = static_cast<Key>(
          SampleZipfIndex(op_rng, options.key_space, options.zipf_skew) + 1);
    } else if (u < options.mix.q_s + options.mix.q_i) {
      request.op = OpCode::kInsert;
      request.key =
          static_cast<Key>(op_rng.NextBounded(options.key_space) + 1);
      request.value = static_cast<Value>(id);
    } else {
      request.op = OpCode::kDelete;
      request.key = static_cast<Key>(
          SampleZipfIndex(op_rng, options.key_space, options.zipf_skew) + 1);
    }

    const int shard = ShardOfKey(request.key, options.shards);
    double now = SecondsSince(start);
    {
      MutexLock guard(&conn->mu);
      conn->outstanding[id] = {request.op, shard, scheduled};
      conn->RecordActiveLocked(now);
    }
    if (!conn->client.Send(request)) {
      MutexLock guard(&conn->mu);
      conn->outstanding.erase(id);
      conn->errors += 1;
      conn->transport_error.store(true, std::memory_order_release);
      break;
    }
    conn->sent += 1;
    conn->shard_sent[static_cast<size_t>(shard)] += 1;
    conn->send_lag.Add(now - scheduled);
    TraceRequest(options.trace, obs::TraceEventKind::kOpArrive, id,
                 request.op, now, 0.0);
    id += stride;
  }
  conn->sender_done.store(true, std::memory_order_release);
}

void ReceiverLoop(const DriveOptions& options, ConnDriver* conn,
                  Clock::time_point start) {
  double drain_deadline = -1.0;
  for (;;) {
    if (conn->transport_error.load(std::memory_order_acquire)) {
      MutexLock guard(&conn->mu);
      conn->errors += conn->outstanding.size();
      conn->outstanding.clear();
      conn->RecordActiveLocked(SecondsSince(start));
      return;
    }
    if (conn->sender_done.load(std::memory_order_acquire)) {
      size_t open;
      {
        MutexLock guard(&conn->mu);
        open = conn->outstanding.size();
      }
      if (open == 0) return;
      double now = SecondsSince(start);
      if (drain_deadline < 0.0) {
        drain_deadline = now + options.drain_timeout_seconds;
      } else if (now >= drain_deadline) {
        MutexLock guard(&conn->mu);
        conn->unanswered += conn->outstanding.size();
        conn->outstanding.clear();
        conn->RecordActiveLocked(now);
        return;
      }
    }
    Response response;
    int rc = conn->client.ReceivePoll(&response, 50);
    if (rc == 0) continue;
    if (rc < 0) {
      conn->transport_error.store(true, std::memory_order_release);
      continue;  // next iteration folds the outstanding set into errors
    }
    double now = SecondsSince(start);
    MutexLock guard(&conn->mu);
    auto it = conn->outstanding.find(response.id);
    if (it == conn->outstanding.end()) {
      conn->errors += 1;  // unmatched reply
      continue;
    }
    PendingOp pending = it->second;
    conn->outstanding.erase(it);
    conn->RecordActiveLocked(now);
    switch (response.status) {
      case Status::kFound:
      case Status::kNotFound:
      case Status::kInserted:
      case Status::kUpdated:
      case Status::kDeleted:
      case Status::kDeleteMiss: {
        double latency = now - pending.scheduled;
        conn->completed += 1;
        conn->shard_completed[static_cast<size_t>(pending.shard)] += 1;
        conn->all.Add(latency);
        conn->latencies.Add(latency);
        if (pending.op == OpCode::kSearch) {
          conn->search.Add(latency);
        } else if (pending.op == OpCode::kInsert) {
          conn->insert.Add(latency);
        } else {
          conn->del.Add(latency);
        }
        TraceRequest(options.trace, obs::TraceEventKind::kOpComplete,
                     response.id, pending.op, now, latency);
        break;
      }
      case Status::kRejected:
      case Status::kShuttingDown:
        conn->rejected += 1;
        TraceRequest(options.trace, obs::TraceEventKind::kReject,
                     response.id, pending.op, now, 0.0);
        break;
      case Status::kBadFrame:
      case Status::kStats:  // never requested on a load connection
        conn->errors += 1;
        break;
    }
  }
}

}  // namespace

Histogram LatencyHistogram(double limit_seconds) {
  return Histogram::LogScale(1e-6, limit_seconds, 1.02);
}

DriveReport RunDrive(const DriveOptions& options) {
  DriveReport report;
  report.latencies = LatencyHistogram(options.histogram_limit_seconds);

  const int connections = std::max(1, options.connections);
  const size_t shards = static_cast<size_t>(std::max(1, options.shards));
  report.shard_sent.assign(shards, 0);
  report.shard_completed.assign(shards, 0);
  std::vector<std::unique_ptr<ConnDriver>> conns;
  conns.reserve(connections);
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<ConnDriver>();
    conn->latencies = LatencyHistogram(options.histogram_limit_seconds);
    conn->shard_sent.assign(shards, 0);
    conn->shard_completed.assign(shards, 0);
    // A freshly-started server may not be listening yet: retry briefly so
    // serve+drive scripts need no handshake beyond "serve printed its port".
    std::string error;
    bool connected = false;
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (conn->client.Connect(options.host, options.port, &error)) {
        connected = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!connected) {
      report.connect_ok = false;
      report.error = error;
      return report;
    }
    conns.push_back(std::move(conn));
  }
  report.connect_ok = true;

  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(2 * connections);
  for (int i = 0; i < connections; ++i) {
    ConnDriver* conn = conns[i].get();
    threads.emplace_back(
        [&options, i, conn, start] { SenderLoop(options, i, conn, start); });
    threads.emplace_back(
        [&options, conn, start] { ReceiverLoop(options, conn, start); });
  }
  for (std::thread& thread : threads) thread.join();
  report.wall_seconds = SecondsSince(start);

  // Deterministic fold in connection order (like the runner's seed merge).
  for (const auto& conn : conns) {
    report.sent += conn->sent;
    report.completed += conn->completed;
    report.rejected += conn->rejected;
    report.errors += conn->errors;
    report.unanswered += conn->unanswered;
    for (size_t s = 0; s < shards; ++s) {
      report.shard_sent[s] += conn->shard_sent[s];
      report.shard_completed[s] += conn->shard_completed[s];
    }
    report.search.Merge(conn->search);
    report.insert.Merge(conn->insert);
    report.del.Merge(conn->del);
    report.all.Merge(conn->all);
    report.send_lag.Merge(conn->send_lag);
    report.latencies.Merge(conn->latencies);
    report.active_ops.Merge(conn->active, conn->last_event);
  }
  return report;
}

void WriteDriveJson(std::ostream& out, const std::string& algorithm,
                    const DriveOptions& options, const DriveReport& report,
                    bool include_timing,
                    const std::string* server_stats_json) {
  runner::SimPoint point;
  point.ok =
      report.connect_ok && report.errors == 0 && report.unanswered == 0;
  point.search = report.search;
  point.insert = report.insert;
  point.del = report.del;
  point.all = report.all;
  point.responses = report.latencies;
  point.active_ops = report.active_ops;
  point.completed = report.completed;
  point.seconds = report.wall_seconds;

  runner::SimRunInfo info;
  info.kind = "drive";
  info.algorithm = algorithm;
  info.lambda = options.lambda;
  info.jobs = std::max(1, options.connections);
  info.wall_seconds = report.wall_seconds;
  info.extra_counts = {
      {"sent", report.sent},
      {"rejected", report.rejected},
      {"errors", report.errors},
      {"unanswered", report.unanswered},
      {"connections", static_cast<uint64_t>(std::max(1, options.connections))},
      {"shards", static_cast<uint64_t>(std::max(1, options.shards))},
  };
  info.extra_count_arrays = {
      {"shard_sent", report.shard_sent},
      {"shard_completed", report.shard_completed},
  };
  double span = report.wall_seconds > 0.0 ? report.wall_seconds : 1.0;
  info.extra_stats = {
      {"duration_seconds", options.duration_seconds},
      {"achieved_throughput", static_cast<double>(report.completed) / span},
      {"send_lag_mean_seconds", report.send_lag.mean()},
      {"zipf_skew", options.zipf_skew},
  };
  std::string build;
  AppendBuildProvenanceJson(&build);
  info.extra_raw_json.push_back({"build", std::move(build)});
  if (server_stats_json != nullptr) {
    info.extra_raw_json.push_back({"server", *server_stats_json});
  }
  runner::WriteSimPointJson(out, info, point, include_timing);
}

}  // namespace net
}  // namespace cbtree
