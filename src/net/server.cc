#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <utility>

#include "base/build_info.h"
#include "obs/expo.h"
#include "stats/rng.h"
#include "util/check.h"
#include "wal/recovery.h"

namespace cbtree {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// Cells the server's registry needs: the base service metrics plus seven
/// stage timers and three WAL timers + one WAL counter per shard (a timer
/// takes 3 + kTimerBuckets cells); the default Registry capacity would
/// overflow past ~20 shards.
uint32_t RegistryCellCapacity(int shards) {
  const uint32_t per_shard = 10u * (3u + obs::kTimerBuckets) + 1u;
  return 2048u + per_shard * static_cast<uint32_t>(shards);
}

void AppendJsonU64(const char* key, uint64_t value, bool* first,
                   std::string* out) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s\"%s\":%llu", *first ? "" : ",",
                key, static_cast<unsigned long long>(value));
  *first = false;
  out->append(buffer);
}

/// Raises `*into` by elementwise-merging another timer view (counts, total,
/// buckets add; max keeps the larger).
void MergeTimer(obs::TimerSnapshot* into, const obs::TimerSnapshot& from) {
  into->count += from.count;
  into->total_ns += from.total_ns;
  if (from.max_ns > into->max_ns) into->max_ns = from.max_ns;
  if (into->buckets.size() < from.buckets.size()) {
    into->buckets.resize(from.buckets.size(), 0);
  }
  for (size_t b = 0; b < from.buckets.size(); ++b) {
    into->buckets[b] += from.buckets[b];
  }
}

/// Opens a nonblocking listen socket on host:port. SO_REUSEPORT is set when
/// `reuseport`; returns -1 with *error filled on failure.
int OpenListenSocket(const std::string& host, int port, bool reuseport,
                     std::string* error) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    if (error != nullptr) {
      *error = std::string("SO_REUSEPORT: ") + strerror(errno);
    }
    close(fd);
    return -1;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host '" + host + "'";
    close(fd);
    return -1;
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = std::string("bind: ") + strerror(errno);
    close(fd);
    return -1;
  }
  if (listen(fd, 128) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + strerror(errno);
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

/// Per-connection state, owned by one event loop: only that loop's thread
/// reads it, writes it and closes it. Shutdown completes batches against
/// closed connections too, but only after every loop has exited.
struct Server::Conn {
  int fd = -1;
  uint64_t id = 0;
  Loop* loop = nullptr;  ///< owning event loop

  std::string read_buffer;
  size_t read_pos = 0;
  bool poisoned = false;  ///< framing lost; discard further input

  std::string write_buffer;
  size_t write_pos = 0;
  bool closed = false;
  bool close_after_flush = false;
  bool write_armed = false;  ///< EPOLLOUT registered
  /// Largest unflushed backlog this connection ever reached.
  size_t write_buffer_hwm = 0;
  /// Cumulative stream offsets: bytes ever appended / ever handed to the
  /// kernel. appended_total - flushed_total == unflushed(). The flush spans
  /// complete (stage timers, sampled waterfalls) once flushed_total passes
  /// their end offset.
  uint64_t appended_total = 0;
  uint64_t flushed_total = 0;
  std::deque<FlushSpan> flush_spans;

  size_t unflushed() const { return write_buffer.size() - write_pos; }
};

/// One event loop: epoll set, wake eventfd, optionally its own listen fd
/// (SO_REUSEPORT), and the connections it owns.
struct Server::Loop {
  int index = 0;
  int epoll_fd = -1;
  int listen_fd = -1;  ///< -1 on loops > 0 in accept round-robin fallback
  int wake_event_fd = -1;
  std::thread thread;

  /// Connections by fd; loop thread only.
  std::map<int, std::shared_ptr<Conn>> conns;

  Mutex mu;
  /// Accepted fds handed over by loop 0 in the round-robin fallback.
  std::vector<int> adopted_fds CBTREE_GUARDED_BY(mu);
  /// Batches of this loop's connections whose writes became durable,
  /// posted by the shard log writers for this loop to acknowledge.
  std::vector<ExecutedBatch> durable CBTREE_GUARDED_BY(mu);
  /// Admission budget of the batches acknowledged during the loop's current
  /// pass over its ready events, returned to in_flight_ when the pass ends
  /// (by Shutdown once the loop has exited); loop thread only.
  size_t acked_this_pass = 0;

  // Per-loop accounting (see LoopServerStats).
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_received{0};
  std::atomic<uint64_t> stats_requests{0};
  std::atomic<uint64_t> slow_consumer_drops{0};
  std::atomic<size_t> write_buffer_hwm{0};
};

/// Adapts one shard's wal::ShardLog onto the tree-layer durability hook:
/// the trees log and wait through this without knowing about files, and the
/// wal library never sees a tree (the layering stays acyclic).
class ShardWalBinding : public WalBinding {
 public:
  explicit ShardWalBinding(wal::ShardLog* log) : log_(log) {}
  uint64_t LogInsert(Key key, Value value) override {
    return log_->AppendInsert(key, value);
  }
  uint64_t LogDelete(Key key) override { return log_->AppendDelete(key); }
  void WaitDurable(uint64_t lsn) override { log_->WaitDurable(lsn); }

 private:
  wal::ShardLog* log_;
};

/// One key-space shard: its tree plus per-shard batch accounting. Any loop
/// may run a batch on any shard.
struct Server::Shard {
  std::unique_ptr<ConcurrentBTree> tree;
  /// Write-ahead log + the binding the tree mutates through (null when
  /// durability is off). The log outlives the loops (its writer may still
  /// release parked acks of batches they ran) and survives until the Server
  /// dies so the final report can read its stats after Close().
  std::unique_ptr<wal::ShardLog> log;
  std::unique_ptr<WalBinding> wal_binding;
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batched_requests{0};
  /// Requests admitted to this shard and not yet completed (executing or
  /// awaiting durability): the live per-shard queue depth.
  std::atomic<uint64_t> in_flight{0};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      obs_(RegistryCellCapacity(std::max(1, options_.shards))) {
  obs_batches_ = obs_.counter("net.batches");
  obs_batched_requests_ = obs_.counter("net.batched_requests");
  obs_service_ns_ = obs_.timer("net.service_ns");
  obs_request_ns_ = obs_.timer("net.request_ns");
  const int shard_count = std::max(1, options_.shards);
  obs_stage_.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    const std::string suffix = ".s" + std::to_string(s);
    StageTimers timers;
    timers.admit = obs_.timer("stage.admit_ns" + suffix);
    timers.queue = obs_.timer("stage.queue_ns" + suffix);
    timers.batch = obs_.timer("stage.batch_ns" + suffix);
    timers.tree = obs_.timer("stage.tree_ns" + suffix);
    timers.buffer = obs_.timer("stage.buffer_ns" + suffix);
    timers.flush = obs_.timer("stage.flush_ns" + suffix);
    timers.total = obs_.timer("stage.total_ns" + suffix);
    obs_stage_.push_back(timers);
  }
  stats_ring_ = std::make_unique<obs::SnapshotRing>(
      options_.stats_ring == 0 ? 1 : options_.stats_ring);
}

Server::~Server() { Shutdown(); }

ConcurrentBTree* Server::tree(int shard) {
  return shards_[static_cast<size_t>(shard)]->tree.get();
}

const wal::ShardLog* Server::wal_log(int shard) const {
  return shards_[static_cast<size_t>(shard)]->log.get();
}

void Server::CheckAllInvariants() const {
  for (const auto& shard : shards_) shard->tree->CheckInvariants();
}

bool Server::StartListeners(std::string* error) {
  const int loops = std::max(1, options_.loops);
  loops_.clear();
  for (int i = 0; i < loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loops_.push_back(std::move(loop));
  }

  // Loop 0 always binds (with SO_REUSEPORT whenever more loops will try to
  // share the port); its bound port anchors the rest.
  const bool want_reuseport = loops > 1 && !options_.force_accept_round_robin;
  int first = OpenListenSocket(options_.host, options_.port, want_reuseport,
                               error);
  if (first < 0 && want_reuseport) {
    // Kernel without SO_REUSEPORT: retry plain and fall back to round-robin.
    first = OpenListenSocket(options_.host, options_.port, false, error);
  }
  if (first < 0) return false;
  loops_[0]->listen_fd = first;

  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  getsockname(first, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  reuseport_ = want_reuseport;
  for (int i = 1; reuseport_ && i < loops; ++i) {
    std::string ignored;
    int fd = OpenListenSocket(options_.host, port_, true, &ignored);
    if (fd < 0) {
      // Fall back: close the extra sockets already opened; loop 0 accepts
      // for everyone and hands fds over round-robin.
      for (int j = 1; j < i; ++j) {
        close(loops_[j]->listen_fd);
        loops_[j]->listen_fd = -1;
      }
      reuseport_ = false;
      break;
    }
    loops_[i]->listen_fd = fd;
  }

  for (auto& loop : loops_) {
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    loop->wake_event_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    CBTREE_CHECK(loop->epoll_fd >= 0 && loop->wake_event_fd >= 0);
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_event_fd;
    CBTREE_CHECK_EQ(
        epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_event_fd, &ev),
        0);
    if (loop->listen_fd != -1) {
      ev.data.fd = loop->listen_fd;
      CBTREE_CHECK_EQ(
          epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->listen_fd, &ev), 0);
    }
  }
  return true;
}

bool Server::Start(std::string* error) {
  CBTREE_CHECK(!running_.load()) << "Start() called twice";
  const int shard_count = std::max(1, options_.shards);
  shards_.clear();
  for (int s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->tree = MakeConcurrentBTree(options_.algorithm, options_.node_size);
    shards_.push_back(std::move(shard));
  }
  const bool wal_enabled = !options_.wal_dir.empty();
  wal_replayed_records_ = 0;
  wal_replayed_segments_ = 0;
  wal_truncated_bytes_ = 0;
  if (wal_enabled) {
    for (int s = 0; s < shard_count; ++s) {
      const std::string dir =
          options_.wal_dir + "/shard-" + std::to_string(s);
      ConcurrentBTree* tree = shards_[static_cast<size_t>(s)]->tree.get();
      // Replay BEFORE the log is bound, so redo records are not re-logged.
      const wal::RecoveryResult recovered = wal::RecoverShard(
          dir, static_cast<uint32_t>(s), [tree](const wal::WalRecord& record) {
            if (record.type == wal::RecordType::kInsert) {
              tree->Insert(record.key, record.value);
            } else {
              tree->Delete(record.key);
            }
          });
      if (!recovered.ok) {
        if (error != nullptr) *error = recovered.error;
        return false;
      }
      // A replayed tree must be structurally sound before it serves.
      if (recovered.records > 0) tree->CheckInvariants();
      wal_replayed_records_ += recovered.records;
      wal_replayed_segments_ += recovered.segments;
      wal_truncated_bytes_ += recovered.truncated_bytes;

      wal::WalOptions wal_options;
      wal_options.dir = dir;
      wal_options.shard = static_cast<uint32_t>(s);
      wal_options.fsync = options_.wal_fsync;
      wal_options.group_commit_us = options_.wal_group_commit_us;
      wal_options.segment_bytes = options_.wal_segment_bytes;
      wal_options.start_lsn = recovered.max_lsn + 1;
      wal_options.registry = &obs_;
      std::string wal_error;
      shards_[static_cast<size_t>(s)]->log =
          wal::ShardLog::Open(wal_options, &wal_error);
      if (shards_[static_cast<size_t>(s)]->log == nullptr) {
        if (error != nullptr) *error = wal_error;
        return false;
      }
      shards_[static_cast<size_t>(s)]->wal_binding =
          std::make_unique<ShardWalBinding>(
              shards_[static_cast<size_t>(s)]->log.get());
      // Bound retention-free for the preload (one SyncAll beats 10^4
      // per-insert waits); the configured policy is applied below, before
      // the listeners open.
      tree->BindWal(shards_[static_cast<size_t>(s)]->wal_binding.get(),
                    RecoveryPolicy::kNone);
    }
  }
  // A non-empty replay IS the preload (the log already contains the whole
  // tree state, preloaded keys included); re-preloading would double-insert.
  if (options_.preload_items > 0 && wal_replayed_records_ == 0) {
    // Same preload scheme as `cbtree stress`: uniform keys over twice the
    // item count, so drivers using the same --items value share the space.
    // Each key is routed to its owning shard, exactly like live requests.
    const uint64_t key_space = 2 * options_.preload_items;
    Rng rng(options_.seed * 0x9e3779b97f4a7c15ull + 1);
    for (uint64_t i = 0; i < options_.preload_items; ++i) {
      Key key = static_cast<Key>(rng.NextBounded(key_space) + 1);
      shards_[ShardOfKey(key, shard_count)]->tree->Insert(
          key, static_cast<Value>(i));
    }
    // The preload goes through the bound logs; make it durable before the
    // listeners open so a crash at any serving instant can replay it.
    for (auto& shard : shards_) {
      if (shard->log != nullptr) shard->log->SyncAll();
    }
  }
  wal_preload_appends_ = 0;
  wal_preload_fsyncs_ = 0;
  if (wal_enabled) {
    for (auto& shard : shards_) {
      shard->tree->BindWal(shard->wal_binding.get(), options_.wal_retention);
      const wal::WalStats& w = shard->log->stats();
      wal_preload_appends_ += w.appends.load(std::memory_order_relaxed);
      wal_preload_fsyncs_ += w.fsyncs.load(std::memory_order_relaxed);
    }
  }

  start_time_ = Clock::now();
#if CBTREE_OBS_ENABLED
  {
    // Start runs single-threaded, but the flag is guarded by shutdown_mu_
    // and the uncontended acquisition costs nothing here.
    MutexLock guard(&shutdown_mu_);
    final_snapshot_done_ = false;
  }
  if (options_.stats_interval_s > 0 && !options_.stats_file.empty()) {
    stats_file_ = std::fopen(options_.stats_file.c_str(), "w");
    if (stats_file_ == nullptr) {
      if (error != nullptr) {
        *error = "stats_file open '" + options_.stats_file +
                 "': " + strerror(errno);
      }
      return false;
    }
  }
  if (options_.stats_port >= 0) {
    stats_listen_fd_ =
        OpenListenSocket(options_.host, options_.stats_port, false, error);
    if (stats_listen_fd_ < 0) return false;
    sockaddr_in bound = {};
    socklen_t bound_len = sizeof(bound);
    getsockname(stats_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
    stats_port_actual_ = ntohs(bound.sin_port);
    stats_stop_.store(false, std::memory_order_release);
    stats_thread_ = std::thread([this] { StatsListenerLoop(); });
  }
#endif

  if (!StartListeners(error)) return false;

  draining_.store(false, std::memory_order_release);
  loops_exited_.store(0, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { EventLoop(raw); });
  }
  return true;
}

void Server::WakeLoop(Loop* loop) {
  uint64_t one = 1;
  ssize_t ignored = write(loop->wake_event_fd, &one, sizeof(one));
  (void)ignored;
}

void Server::Shutdown() {
  // Serialized so a signal-driven drain and the destructor cannot race.
  MutexLock guard(&shutdown_mu_);
  bool any_joined = false;
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      if (!any_joined) draining_.store(true, std::memory_order_release);
      any_joined = true;
    }
  }
  if (any_joined) {
    for (auto& loop : loops_) WakeLoop(loop.get());
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
  }
  // Only after the loops are gone (none can be appending) do the logs
  // flush their tails, release any acks still parked on them, and join
  // their writers. The ShardLog objects stay alive for the final report's
  // WAL stats.
  for (auto& shard : shards_) {
    if (shard->log != nullptr) shard->log->Close();
  }
  // A drain that timed out leaves acks that the writers posted after their
  // loop had exited (in Close above, or earlier). Their connections are all
  // closed by now: the batches complete here, counted, sending nothing.
  for (auto& loop : loops_) {
    std::vector<ExecutedBatch> durable;
    {
      MutexLock guard(&loop->mu);
      durable.swap(loop->durable);
    }
    for (ExecutedBatch& batch : durable) CompleteBatch(&batch);
    in_flight_.fetch_sub(loop->acked_this_pass, std::memory_order_release);
    loop->acked_this_pass = 0;
  }
#if CBTREE_OBS_ENABLED
  // The exposition listener stops before the final snapshot so no scrape
  // can race it; the final interval is recorded only after every loop and
  // log writer has joined, which is what makes it exact (interval deltas
  // then sum to the final cumulative totals bit for bit).
  if (stats_thread_.joinable()) {
    stats_stop_.store(true, std::memory_order_release);
    stats_thread_.join();
  }
  if (stats_listen_fd_ != -1) {
    close(stats_listen_fd_);
    stats_listen_fd_ = -1;
  }
  if (any_joined && options_.stats_interval_s > 0 && !final_snapshot_done_) {
    RecordStatsTick();
    final_snapshot_done_ = true;
  }
  if (stats_file_ != nullptr) {
    std::fclose(stats_file_);
    stats_file_ = nullptr;
  }
#endif
  for (auto& loop : loops_) {
    if (loop->epoll_fd != -1) close(loop->epoll_fd);
    if (loop->wake_event_fd != -1) close(loop->wake_event_fd);
    loop->epoll_fd = loop->wake_event_fd = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Server::ServeUntil(int wake_fd) {
  if (!running_.load(std::memory_order_acquire)) return;
  pollfd pfd = {};
  pfd.fd = wake_fd;
  pfd.events = POLLIN;
  while (running_.load(std::memory_order_acquire)) {
    int rc = poll(&pfd, 1, 200);
    if (rc > 0) break;                      // wake fd readable
    if (rc < 0 && errno != EINTR) break;    // bad fd: fail open, drain
    if (rc < 0) break;                      // EINTR: a signal landed
  }
  Shutdown();
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_closed = connections_closed_.load();
  stats.requests_received = requests_received_.load();
  stats.completed = completed_.load();
  stats.rejected = rejected_.load();
  stats.shutdown_rejected = shutdown_rejected_.load();
  stats.bad_frames = bad_frames_.load();
  stats.slow_consumer_drops = slow_consumer_drops_.load();
  stats.stats_requests = stats_requests_.load();
  stats.bytes_in = bytes_in_.load();
  stats.bytes_out = bytes_out_.load();
  stats.reuseport = reuseport_;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardServerStats s;
    s.executed = shard->executed.load();
    s.batches = shard->batches.load();
    s.batched_requests = shard->batched_requests.load();
    s.tree_size = shard->tree->size();
    stats.batches += s.batches;
    stats.batched_requests += s.batched_requests;
    stats.shards.push_back(s);
  }
  stats.loops.reserve(loops_.size());
  for (const auto& loop : loops_) {
    LoopServerStats l;
    l.connections_accepted = loop->connections_accepted.load();
    l.requests_received = loop->requests_received.load();
    l.stats_requests = loop->stats_requests.load();
    l.slow_consumer_drops = loop->slow_consumer_drops.load();
    l.write_buffer_hwm = loop->write_buffer_hwm.load();
    if (l.write_buffer_hwm > stats.write_buffer_hwm) {
      stats.write_buffer_hwm = l.write_buffer_hwm;
    }
    stats.loops.push_back(l);
  }
  stats.wal.enabled = false;
  for (const auto& shard : shards_) {
    if (shard->log == nullptr) continue;
    stats.wal.enabled = true;
    const wal::WalStats& w = shard->log->stats();
    stats.wal.appends += w.appends.load(std::memory_order_relaxed);
    stats.wal.groups += w.groups.load(std::memory_order_relaxed);
    stats.wal.fsyncs += w.fsyncs.load(std::memory_order_relaxed);
    stats.wal.bytes += w.bytes.load(std::memory_order_relaxed);
    stats.wal.segments += w.rotations.load(std::memory_order_relaxed);
    const uint64_t max_group = w.max_group.load(std::memory_order_relaxed);
    if (max_group > stats.wal.max_group) stats.wal.max_group = max_group;
  }
  if (stats.wal.enabled) {
    stats.wal.serving_appends = stats.wal.appends - wal_preload_appends_;
    stats.wal.serving_fsyncs = stats.wal.fsyncs - wal_preload_fsyncs_;
  }
  stats.wal.replayed_records = wal_replayed_records_;
  stats.wal.replayed_segments = wal_replayed_segments_;
  stats.wal.truncated_bytes = wal_truncated_bytes_;
  return stats;
}

obs::Snapshot Server::MergedSnapshot() const {
  obs::Snapshot snapshot = obs_.Read();
  // Functional accounting injected as "srv.*" so the merged view (and with
  // it kStats, the JSONL series, and the Prometheus text) stays truthful
  // even when the build compiles the registry out (CBTREE_OBS=OFF).
  snapshot.counters["srv.connections_accepted"] =
      connections_accepted_.load(std::memory_order_relaxed);
  snapshot.counters["srv.connections_closed"] =
      connections_closed_.load(std::memory_order_relaxed);
  snapshot.counters["srv.requests"] =
      requests_received_.load(std::memory_order_relaxed);
  snapshot.counters["srv.completed"] =
      completed_.load(std::memory_order_relaxed);
  snapshot.counters["srv.rejected"] =
      rejected_.load(std::memory_order_relaxed);
  snapshot.counters["srv.shutdown_rejected"] =
      shutdown_rejected_.load(std::memory_order_relaxed);
  snapshot.counters["srv.bad_frames"] =
      bad_frames_.load(std::memory_order_relaxed);
  snapshot.counters["srv.slow_consumer_drops"] =
      slow_consumer_drops_.load(std::memory_order_relaxed);
  snapshot.counters["srv.stats_requests"] =
      stats_requests_.load(std::memory_order_relaxed);
  snapshot.counters["srv.bytes_in"] =
      bytes_in_.load(std::memory_order_relaxed);
  snapshot.counters["srv.bytes_out"] =
      bytes_out_.load(std::memory_order_relaxed);
  snapshot.gauges["srv.in_flight"] =
      static_cast<int64_t>(in_flight_.load(std::memory_order_relaxed));
  size_t hwm = 0;
  for (const auto& loop : loops_) {
    const std::string prefix = "srv.loop" + std::to_string(loop->index);
    snapshot.counters[prefix + ".requests"] =
        loop->requests_received.load(std::memory_order_relaxed);
    snapshot.counters[prefix + ".stats_requests"] =
        loop->stats_requests.load(std::memory_order_relaxed);
    snapshot.counters[prefix + ".slow_consumer_drops"] =
        loop->slow_consumer_drops.load(std::memory_order_relaxed);
    const size_t loop_hwm =
        loop->write_buffer_hwm.load(std::memory_order_relaxed);
    if (loop_hwm > hwm) hwm = loop_hwm;
  }
  snapshot.gauges["srv.write_buffer_hwm"] = static_cast<int64_t>(hwm);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "srv.shard" + std::to_string(s);
    snapshot.counters[prefix + ".executed"] =
        shards_[s]->executed.load(std::memory_order_relaxed);
    snapshot.counters[prefix + ".batches"] =
        shards_[s]->batches.load(std::memory_order_relaxed);
    snapshot.counters[prefix + ".batched_requests"] =
        shards_[s]->batched_requests.load(std::memory_order_relaxed);
    snapshot.gauges[prefix + ".keys"] =
        static_cast<int64_t>(shards_[s]->tree->size());
    snapshot.gauges[prefix + ".in_flight"] = static_cast<int64_t>(
        shards_[s]->in_flight.load(std::memory_order_relaxed));
  }
  // Durability totals (summed across shard logs; absent when WAL is off).
  {
    uint64_t appends = 0, groups = 0, fsyncs = 0, bytes = 0;
    bool wal_enabled = false;
    for (const auto& shard : shards_) {
      if (shard->log == nullptr) continue;
      wal_enabled = true;
      const wal::WalStats& w = shard->log->stats();
      appends += w.appends.load(std::memory_order_relaxed);
      groups += w.groups.load(std::memory_order_relaxed);
      fsyncs += w.fsyncs.load(std::memory_order_relaxed);
      bytes += w.bytes.load(std::memory_order_relaxed);
    }
    if (wal_enabled) {
      snapshot.counters["srv.wal.appends"] = appends;
      snapshot.counters["srv.wal.groups"] = groups;
      snapshot.counters["srv.wal.fsyncs"] = fsyncs;
      snapshot.counters["srv.wal.bytes"] = bytes;
      snapshot.counters["srv.wal.replayed_records"] = wal_replayed_records_;
    }
  }
  // Per-level latch telemetry folded across shards: each shard's tree keeps
  // its own registry, so level l's counters and contended-wait histograms
  // merge into one "latch.L<l>.*" family (empty under CBTREE_OBS=OFF).
  for (const auto& shard : shards_) {
    const CTreeStats tree_stats = shard->tree->stats();
    for (const LatchLevelStats& level : tree_stats.latch_levels) {
      const std::string prefix = "latch.L" + std::to_string(level.level);
      snapshot.counters[prefix + ".shared_acq"] += level.shared.acquisitions;
      snapshot.counters[prefix + ".shared_contended"] +=
          level.shared.contended;
      snapshot.counters[prefix + ".exclusive_acq"] +=
          level.exclusive.acquisitions;
      snapshot.counters[prefix + ".exclusive_contended"] +=
          level.exclusive.contended;
      MergeTimer(&snapshot.timers[prefix + ".shared_wait_ns"],
                 level.shared.wait);
      MergeTimer(&snapshot.timers[prefix + ".exclusive_wait_ns"],
                 level.exclusive.wait);
    }
  }
  return snapshot;
}

std::vector<obs::IntervalSnapshot> Server::history() const {
  if (stats_ring_ == nullptr) return {};
  return stats_ring_->History();
}

void Server::RecordStatsTick() {
  const double now_s = static_cast<double>(ElapsedNs(start_time_)) * 1e-9;
  const obs::IntervalSnapshot interval =
      stats_ring_->Record(now_s, MergedSnapshot());
  if (stats_file_ != nullptr) {
    std::string line;
    interval.AppendJson(&line);
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), stats_file_);
    std::fflush(stats_file_);
  }
}

namespace {

/// stage.<name>_ns.s<k> timer from the merged snapshot; empty if absent.
obs::TimerSnapshot StageTimerOf(const obs::Snapshot& snapshot,
                                const char* name, size_t shard) {
  auto it = snapshot.timers.find("stage." + std::string(name) + "_ns.s" +
                                 std::to_string(shard));
  return it == snapshot.timers.end() ? obs::TimerSnapshot{} : it->second;
}

uint64_t CounterOf(const obs::Snapshot& snapshot, const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

}  // namespace

std::string Server::BuildStatsBody(StatsFormat format) const {
  const double uptime_s = static_cast<double>(ElapsedNs(start_time_)) * 1e-9;
  const ServerStats totals = stats();
  const obs::Snapshot snapshot = MergedSnapshot();
  const uint64_t intervals_recorded =
      stats_ring_ != nullptr ? stats_ring_->recorded() : 0;
  const uint64_t intervals_dropped =
      stats_ring_ != nullptr ? stats_ring_->dropped() : 0;
  obs::IntervalSnapshot last;
  if (intervals_recorded > 0) last = stats_ring_->last();
  const std::string algorithm =
      shards_.empty() ? "?" : shards_[0]->tree->name();
  std::string out;
  if (format == StatsFormat::kTable) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "cbtree serve  uptime %.3fs  algorithm %s  shards %d  "
                  "loops %d\n",
                  uptime_s, algorithm.c_str(), num_shards(), num_loops());
    out += line;
    out += "build " + BuildProvenanceLine() + "\n";
    std::snprintf(line, sizeof(line),
                  "requests %llu  completed %llu  rejected %llu  "
                  "shutdown_rejected %llu  bad_frames %llu  stats %llu\n",
                  static_cast<unsigned long long>(totals.requests_received),
                  static_cast<unsigned long long>(totals.completed),
                  static_cast<unsigned long long>(totals.rejected),
                  static_cast<unsigned long long>(totals.shutdown_rejected),
                  static_cast<unsigned long long>(totals.bad_frames),
                  static_cast<unsigned long long>(totals.stats_requests));
    out += line;
    std::snprintf(
        line, sizeof(line),
        "in_flight %llu  write_buffer_hwm %llu  slow_consumer_drops %llu  "
        "intervals %llu (dropped %llu)\n",
        static_cast<unsigned long long>(
            in_flight_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(totals.write_buffer_hwm),
        static_cast<unsigned long long>(totals.slow_consumer_drops),
        static_cast<unsigned long long>(intervals_recorded),
        static_cast<unsigned long long>(intervals_dropped));
    out += line;
    std::snprintf(line, sizeof(line),
                  "%-6s %12s %10s %9s %10s %12s %12s %13s %13s\n", "shard",
                  "executed", "keys", "inflight", "exec/s", "tree_p50_us",
                  "tree_p99_us", "total_p50_us", "total_p99_us");
    out += line;
    const double interval_dt = last.t_end_s - last.t_begin_s;
    for (size_t s = 0; s < shards_.size(); ++s) {
      // A rate needs a finished interval; before the first one (or with
      // the ticker off) there is none to report, which is not zero.
      char rate[32] = "n/a";
      if (intervals_recorded > 0 && interval_dt > 0) {
        std::snprintf(
            rate, sizeof(rate), "%.1f",
            static_cast<double>(CounterOf(
                last.delta, "srv.shard" + std::to_string(s) + ".executed")) /
                interval_dt);
      }
      const obs::TimerSnapshot tree_t = StageTimerOf(snapshot, "tree", s);
      const obs::TimerSnapshot total_t = StageTimerOf(snapshot, "total", s);
      std::snprintf(
          line, sizeof(line),
          "s%-5zu %12llu %10zu %9llu %10s %12.1f %12.1f %13.1f %13.1f\n",
          s,
          static_cast<unsigned long long>(
              shards_[s]->executed.load(std::memory_order_relaxed)),
          shards_[s]->tree->size(),
          static_cast<unsigned long long>(
              shards_[s]->in_flight.load(std::memory_order_relaxed)),
          rate, tree_t.quantile_ns(0.5) * 1e-3, tree_t.quantile_ns(0.99) * 1e-3,
          total_t.quantile_ns(0.5) * 1e-3, total_t.quantile_ns(0.99) * 1e-3);
      out += line;
    }
    return out;
  }
  // StatsFormat::kJson.
  char buffer[64];
  out += "{\"uptime_s\":";
  std::snprintf(buffer, sizeof(buffer), "%.6f", uptime_s);
  out += buffer;
  out += ",\"algorithm\":\"" + algorithm + "\"";
  out += ",\"shards\":" + std::to_string(num_shards());
  out += ",\"loops\":" + std::to_string(num_loops());
  out += ",\"obs\":";
  out += CBTREE_OBS_ENABLED ? "true" : "false";
  out += ",\"build\":";
  AppendBuildProvenanceJson(&out);
  out += ",\"totals\":{";
  bool first = true;
  AppendJsonU64("requests", totals.requests_received, &first, &out);
  AppendJsonU64("completed", totals.completed, &first, &out);
  AppendJsonU64("rejected", totals.rejected, &first, &out);
  AppendJsonU64("shutdown_rejected", totals.shutdown_rejected, &first, &out);
  AppendJsonU64("bad_frames", totals.bad_frames, &first, &out);
  AppendJsonU64("stats_requests", totals.stats_requests, &first, &out);
  AppendJsonU64("slow_consumer_drops", totals.slow_consumer_drops, &first,
                &out);
  AppendJsonU64("connections_accepted", totals.connections_accepted, &first,
                &out);
  AppendJsonU64("connections_closed", totals.connections_closed, &first,
                &out);
  AppendJsonU64("bytes_in", totals.bytes_in, &first, &out);
  AppendJsonU64("bytes_out", totals.bytes_out, &first, &out);
  AppendJsonU64("in_flight", in_flight_.load(std::memory_order_relaxed),
                &first, &out);
  AppendJsonU64("write_buffer_hwm", totals.write_buffer_hwm, &first, &out);
  out += "},\"shards_detail\":[";
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s > 0) out += ",";
    out += "{";
    first = true;
    AppendJsonU64("executed",
                  shards_[s]->executed.load(std::memory_order_relaxed),
                  &first, &out);
    AppendJsonU64("batches",
                  shards_[s]->batches.load(std::memory_order_relaxed), &first,
                  &out);
    AppendJsonU64("batched_requests",
                  shards_[s]->batched_requests.load(std::memory_order_relaxed),
                  &first, &out);
    AppendJsonU64("keys", shards_[s]->tree->size(), &first, &out);
    AppendJsonU64("in_flight",
                  shards_[s]->in_flight.load(std::memory_order_relaxed),
                  &first, &out);
    out += "}";
  }
  out += "],\"snapshot\":";
  snapshot.AppendJson(&out);
  out += ",\"last_interval\":";
  if (intervals_recorded > 0) {
    last.AppendJson(&out);
  } else {
    out += "null";
  }
  out += ",\"intervals_recorded\":" + std::to_string(intervals_recorded);
  out += ",\"intervals_dropped\":" + std::to_string(intervals_dropped);
  out += "}";
  return out;
}

void Server::StatsListenerLoop() {
  while (!stats_stop_.load(std::memory_order_acquire)) {
    pollfd pfd = {};
    pfd.fd = stats_listen_fd_;
    pfd.events = POLLIN;
    int rc = poll(&pfd, 1, 100);
    if (rc <= 0) continue;
    int fd = accept4(stats_listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    timeval tv = {};
    tv.tv_sec = 1;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    // Whatever request line the scraper sent is irrelevant: every path
    // serves the exposition text.
    char sink[1024];
    ssize_t ignored = recv(fd, sink, sizeof(sink), 0);
    (void)ignored;
    std::string body;
    obs::AppendPrometheusText(MergedSnapshot(), "cbtree_", &body);
    char header[160];
    const int header_len = std::snprintf(
        header, sizeof(header),
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
        body.size());
    std::string reply(header, static_cast<size_t>(header_len));
    reply += body;
    size_t sent = 0;
    while (sent < reply.size()) {
      ssize_t n = send(fd, reply.data() + sent, reply.size() - sent,
                       MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    close(fd);
  }
}

void Server::TraceConn(obs::TraceEventKind kind, uint64_t conn_id) {
  if (options_.trace == nullptr) return;
  obs::TraceEvent event;
  event.time = static_cast<double>(ElapsedNs(start_time_)) * 1e-9;
  event.kind = kind;
  event.id = conn_id;
  event.what = "conn";
  options_.trace->Record(event);
}

void Server::TraceRequest(obs::TraceEventKind kind, const Request& request,
                          double seconds) {
  if (options_.trace == nullptr) return;
  obs::TraceEvent event;
  event.time = static_cast<double>(ElapsedNs(start_time_)) * 1e-9;
  event.kind = kind;
  event.id = request.id;
  event.what = OpCodeName(request.op);
  event.value = seconds;
  options_.trace->Record(event);
}

void Server::EventLoop(Loop* loop) {
  bool listen_closed = (loop->listen_fd == -1);
  bool deadline_set = false;
  Clock::time_point drain_deadline;
  epoll_event events[64];
#if CBTREE_OBS_ENABLED
  // Loop 0 doubles as the stats ticker: it shortens its epoll timeout to
  // the next tick and samples the merged registry on schedule. Missed ticks
  // (a long epoll batch) re-anchor instead of bursting.
  const bool ticker = loop->index == 0 && options_.stats_interval_s > 0;
  const auto tick_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          ticker ? options_.stats_interval_s : 1.0));
  Clock::time_point next_tick = Clock::now() + tick_period;
#endif
  // Swapped with the loop's shared lists each iteration, so their capacity
  // is reused.
  std::vector<int> adopted;
  std::vector<ExecutedBatch> durable;
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (!listen_closed) {
        epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, loop->listen_fd, nullptr);
        close(loop->listen_fd);
        loop->listen_fd = -1;
        listen_closed = true;
      }
      if (!deadline_set) {
        drain_deadline = Clock::now() + std::chrono::milliseconds(
                                            options_.drain_timeout_ms);
        deadline_set = true;
      }
      if (LoopIdle(loop) || Clock::now() >= drain_deadline) break;
    }
    int timeout_ms = draining ? 10 : 200;
#if CBTREE_OBS_ENABLED
    if (ticker) {
      auto until_tick = std::chrono::duration_cast<std::chrono::milliseconds>(
                            next_tick - Clock::now())
                            .count();
      if (until_tick < 0) until_tick = 0;
      if (until_tick < timeout_ms) timeout_ms = static_cast<int>(until_tick);
    }
#endif
    int n = epoll_wait(loop->epoll_fd, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
#if CBTREE_OBS_ENABLED
    if (ticker) {
      Clock::time_point now = Clock::now();
      if (now >= next_tick) {
        RecordStatsTick();
        next_tick += tick_period;
        if (next_tick <= now) next_tick = now + tick_period;
      }
    }
#endif
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == loop->listen_fd) {
        AcceptNew(loop);
        continue;
      }
      if (fd == loop->wake_event_fd) {
        uint64_t sink;
        while (read(loop->wake_event_fd, &sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;  // closed earlier this batch
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) HandleWritable(conn);
      if ((events[i].events & EPOLLIN) != 0 && !conn->closed) {
        HandleReadable(conn);
      }
    }
    // Fds handed over by loop 0 (round-robin fallback), registered here so
    // this loop owns them from the first byte; and batches whose writes the
    // shard logs made durable, acknowledged here.
    {
      MutexLock guard(&loop->mu);
      adopted.swap(loop->adopted_fds);
      durable.swap(loop->durable);
    }
    for (int fd : adopted) AdoptConn(loop, fd);
    adopted.clear();
    for (ExecutedBatch& batch : durable) CompleteBatch(&batch);
    durable.clear();
    // The pass is over: only now does the work it acknowledged leave the
    // admission budget. A run-to-completion loop answers a batch before it
    // decodes the next, so releasing per batch would cap in_flight_ at one
    // batch per loop and the budget would never reject; charged per pass,
    // everything one pass took in counts at once.
    // Released last: LoopIdle treats in_flight_ == 0 as fully drained.
    in_flight_.fetch_sub(loop->acked_this_pass, std::memory_order_release);
    loop->acked_this_pass = 0;
  }
  // Drain finished (or timed out): close everything this loop still owns,
  // including any adopted-but-unregistered fds. Acks still parked on the
  // logs are completed by Shutdown.
  {
    MutexLock guard(&loop->mu);
    adopted.swap(loop->adopted_fds);
  }
  for (int fd : adopted) close(fd);
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(loop->conns.size());
  for (auto& [fd, conn] : loop->conns) remaining.push_back(conn);
  for (const std::shared_ptr<Conn>& conn : remaining) CloseConn(conn);
  loop->conns.clear();
  if (!listen_closed && loop->listen_fd != -1) {
    close(loop->listen_fd);
    loop->listen_fd = -1;
  }
  // The server stays `running` until the LAST loop exits — a single loop
  // finishing early (fatal epoll error) must not make a multi-loop drain
  // pass spuriously.
  if (loops_exited_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<int>(loops_.size())) {
    running_.store(false, std::memory_order_release);
  }
}

void Server::AdoptConn(Loop* loop, int fd) {
  if (draining_.load(std::memory_order_acquire)) {
    // The drain raced the handoff: count the accept so accepted == closed
    // still holds, then close without serving.
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    loop->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    connections_closed_.fetch_add(1, std::memory_order_relaxed);
    close(fd);
    return;
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  conn->loop = loop;
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    close(fd);
    return;
  }
  loop->conns[fd] = conn;
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  loop->connections_accepted.fetch_add(1, std::memory_order_relaxed);
  TraceConn(obs::TraceEventKind::kConnOpen, conn->id);
}

void Server::AcceptNew(Loop* loop) {
  for (;;) {
    int fd = accept4(loop->listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient (EMFILE/ECONNABORTED): try next wake
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!reuseport_ && loops_.size() > 1) {
      // Round-robin fallback: loop 0 accepts for everyone and deals fds
      // out; a loop dealing to itself registers directly below.
      Loop* target =
          loops_[accept_rr_.fetch_add(1, std::memory_order_relaxed) %
                 loops_.size()]
              .get();
      if (target != loop) {
        {
          MutexLock guard(&target->mu);
          target->adopted_fds.push_back(fd);
        }
        WakeLoop(target);
        continue;
      }
    }
    AdoptConn(loop, fd);
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buffer[16384];
  for (;;) {
    ssize_t n = recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      if (!conn->poisoned) {
        conn->read_buffer.append(buffer, static_cast<size_t>(n));
      }
      continue;
    }
    if (n == 0) {  // peer closed its write side
      DrainReadBuffer(conn);
      CloseConn(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }
  if (!DrainReadBuffer(conn)) {
    // Framing lost: a kBadFrame reply is queued; close once it flushes and
    // ignore whatever else arrives meanwhile.
    conn->poisoned = true;
    conn->read_buffer.clear();
    conn->read_pos = 0;
  }
}

bool Server::DrainReadBuffer(const std::shared_ptr<Conn>& conn) {
  if (conn->poisoned) return true;
  Batch batch;
  for (;;) {
    const uint8_t* data =
        reinterpret_cast<const uint8_t*>(conn->read_buffer.data()) +
        conn->read_pos;
    size_t size = conn->read_buffer.size() - conn->read_pos;
    Request request;
    size_t consumed = 0;
    DecodeStatus status = DecodeRequest(data, size, &request, &consumed);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      FlushBatch(conn, &batch);  // the well-formed prefix still executes
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.status = Status::kBadFrame;
      response.id = 0;
      SendResponse(conn, response, /*close_after=*/true);
      return false;
    }
    conn->read_pos += consumed;
    if (request.op == OpCode::kStats) {
      // Admin plane: answered inline on the event loop, out of band from
      // the data path. The pending batch flushes first so responses keep
      // the connection's request order.
      FlushBatch(conn, &batch);
      HandleStatsRequest(conn, request);
      continue;
    }
    Admit(conn, request, &batch);
  }
  FlushBatch(conn, &batch);
  // Rejections are only buffered as they are decided (a send per rejection
  // would make shedding load dearer than serving it); one flush attempt
  // sends whatever this read left unsent.
  if (conn->unflushed() > 0) SendResponses(conn, nullptr, 0);
  if (conn->read_pos > 0 && conn->read_pos == conn->read_buffer.size()) {
    conn->read_buffer.clear();
    conn->read_pos = 0;
  } else if (conn->read_pos > 65536) {
    conn->read_buffer.erase(0, conn->read_pos);
    conn->read_pos = 0;
  }
  return true;
}

void Server::Admit(const std::shared_ptr<Conn>& conn, const Request& request,
                   Batch* batch) {
  requests_received_.fetch_add(1, std::memory_order_relaxed);
  conn->loop->requests_received.fetch_add(1, std::memory_order_relaxed);
  if (draining_.load(std::memory_order_acquire)) {
    shutdown_rejected_.fetch_add(1, std::memory_order_relaxed);
    TraceRequest(obs::TraceEventKind::kReject, request, 0.0);
    Response response;
    response.status = Status::kShuttingDown;
    response.id = request.id;
    BufferResponse(conn.get(), response);
    return;
  }
  // Admission control: CAS keeps the server-wide budget exact while the
  // other loops admit and complete concurrently.
  size_t current = in_flight_.load(std::memory_order_relaxed);
  for (;;) {
    if (current >= options_.max_inflight) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      TraceRequest(obs::TraceEventKind::kReject, request, 0.0);
      Response response;
      response.status = Status::kRejected;
      response.id = request.id;
      response.value = options_.retry_hint_us;
      BufferResponse(conn.get(), response);
      return;
    }
    if (in_flight_.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel)) {
      break;
    }
  }
  TraceRequest(obs::TraceEventKind::kOpArrive, request, 0.0);
  const int shard = ShardOfKey(request.key, num_shards());
  if (batch->shard != shard || batch->requests.size() >= options_.max_batch) {
    FlushBatch(conn, batch);
  }
  batch->shard = shard;
  AdmittedRequest admitted;
  admitted.req = request;
#if CBTREE_OBS_ENABLED
  admitted.admit_ns = ElapsedNs(start_time_);
  admitted.sampled =
      options_.trace_sample > 0 && options_.trace != nullptr &&
      trace_sample_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample ==
          0;
#endif
  batch->requests.push_back(admitted);
}

void Server::HandleStatsRequest(const std::shared_ptr<Conn>& conn,
                                const Request& request) {
  // Deliberately NOT in requests_received_: the functional invariant
  // requests == completed + rejected + shutdown_rejected covers the data
  // path only, and a stats probe must not perturb it.
  stats_requests_.fetch_add(1, std::memory_order_relaxed);
  conn->loop->stats_requests.fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.status = Status::kStats;
  response.id = request.id;
  response.body = BuildStatsBody(
      request.key == static_cast<Key>(StatsFormat::kTable)
          ? StatsFormat::kTable
          : StatsFormat::kJson);
  SendResponse(conn, response);
}

void Server::FlushBatch(const std::shared_ptr<Conn>& conn, Batch* batch) {
  if (batch->requests.empty()) return;
  const int shard_index = batch->shard;
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  shard.batches.fetch_add(1, std::memory_order_relaxed);
  obs_batches_.Add();
  if (batch->requests.size() > 1) {
    shard.batched_requests.fetch_add(batch->requests.size(),
                                     std::memory_order_relaxed);
    obs_batched_requests_.Add(batch->requests.size());
  }
  shard.in_flight.fetch_add(batch->requests.size(),
                            std::memory_order_relaxed);
  ConcurrentBTree* tree = shard.tree.get();
  wal::ShardLog* log = shard.log.get();
  // A batch's LSN is its own: the last record this loop appends during the
  // pass, or 0 when it appends nothing (a read-only batch must not wait on
  // an earlier batch's writes). Every append of the pass goes to this
  // shard's log, so the per-thread slot is not disturbed by other shards.
  const uint64_t lsn_before = log != nullptr ? log->ThreadLastLsn() : 0;
  ExecutedBatch done;
  done.conn = conn;
  done.shard = shard_index;
  done.start_ns = ElapsedNs(start_time_);
  done.requests.swap(batch->requests);
  batch->shard = -1;
  done.responses.reserve(done.requests.size());
#if CBTREE_OBS_ENABLED
  StageTimers& stage = obs_stage_[static_cast<size_t>(shard_index)];
  done.span.requests.reserve(done.requests.size());
#endif
  for (const AdmittedRequest& admitted : done.requests) {
    const Request& request = admitted.req;
    if (options_.exec_delay_hook) options_.exec_delay_hook(request);
    const uint64_t tree_start_ns = ElapsedNs(start_time_);
    Response response;
    response.id = request.id;
    switch (request.op) {
      case OpCode::kSearch: {
        std::optional<Value> found = tree->Search(request.key);
        if (found.has_value()) {
          response.status = Status::kFound;
          response.value = *found;
        } else {
          response.status = Status::kNotFound;
        }
        break;
      }
      case OpCode::kInsert:
        response.status = tree->Insert(request.key, request.value)
                              ? Status::kInserted
                              : Status::kUpdated;
        break;
      case OpCode::kDelete:
        response.status = tree->Delete(request.key) ? Status::kDeleted
                                                    : Status::kDeleteMiss;
        break;
      case OpCode::kStats:
        // Unreachable: kStats is answered inline by the event loop and
        // never admitted into a batch.
        response.status = Status::kBadFrame;
        break;
    }
    const uint64_t tree_end_ns = ElapsedNs(start_time_);
    obs_service_ns_.RecordNs(tree_end_ns - tree_start_ns);
#if CBTREE_OBS_ENABLED
    // Shared stamps telescope: admit + queue + batch + tree + buffer +
    // flush == total per request, in exact integer nanoseconds. The pass
    // starts where it was submitted, so queue is 0.
    stage.admit.RecordNs(done.start_ns - admitted.admit_ns);
    stage.queue.RecordNs(0);
    stage.batch.RecordNs(tree_start_ns - done.start_ns);
    stage.tree.RecordNs(tree_end_ns - tree_start_ns);
    FlushSpanRequest meta;
    meta.id = request.id;
    meta.op = request.op;
    meta.shard = shard_index;
    meta.sampled = admitted.sampled;
    meta.admit_ns = admitted.admit_ns;
    meta.start_ns = done.start_ns;
    meta.tree_start_ns = tree_start_ns;
    meta.tree_end_ns = tree_end_ns;
    done.span.requests.push_back(meta);
#endif
    done.responses.push_back(response);
  }
  // Ack-after-durable without a waiting thread: a batch whose writes are
  // not yet durable parks on its last LSN, and the shard's WAL writer posts
  // it back to this loop right after the group-commit barrier that covers
  // it, so the loop goes straight on and every write admitted meanwhile
  // joins the next group. Under --recovery=leaf|naive the trees already
  // waited latch-held, the LSN is durable, and the acks go out here. The
  // durable wait lands in stage.buffer (tree end -> buffered) and in
  // wal.sync_wait_ns.
  if (log == nullptr) {
    CompleteBatch(&done);
    return;
  }
  const uint64_t lsn_after = log->ThreadLastLsn();
  if (lsn_after == lsn_before || log->DurableLsn() >= lsn_after) {
    CompleteBatch(&done);
    return;
  }
  log->WhenDurable(lsn_after, [this, done = std::move(done)]() mutable {
    PostDurable(std::move(done));
  });
}

void Server::PostDurable(ExecutedBatch batch) {
  Loop* loop = batch.conn->loop;
  bool wake;
  {
    MutexLock guard(&loop->mu);
    // A non-empty inbox already has a wakeup on its way.
    wake = loop->durable.empty();
    loop->durable.push_back(std::move(batch));
  }
  if (wake) WakeLoop(loop);
}

void Server::CompleteBatch(ExecutedBatch* batch) {
  Shard& shard = *shards_[static_cast<size_t>(batch->shard)];
  const size_t count = batch->requests.size();
  // Count completions BEFORE buffering the responses: the increments then
  // happen-before any client can have received a reply, so a kStats probe
  // sent after a response reads counters that already include it
  // (read-your-writes for the admin plane).
  shard.executed.fetch_add(count, std::memory_order_relaxed);
  completed_.fetch_add(count, std::memory_order_relaxed);
  // One append and one flush attempt for the whole batch: the
  // single-tree-pass analogue on the write side.
  SendResponses(batch->conn, batch->responses.data(), batch->responses.size(),
                /*close_after=*/false, &batch->span);
  const uint64_t request_ns = ElapsedNs(start_time_) - batch->start_ns;
  for (const AdmittedRequest& admitted : batch->requests) {
    obs_request_ns_.RecordNs(request_ns);
    TraceRequest(obs::TraceEventKind::kOpComplete, admitted.req,
                 static_cast<double>(request_ns) * 1e-9);
  }
  shard.in_flight.fetch_sub(count, std::memory_order_relaxed);
  batch->conn->loop->acked_this_pass += count;
}

void Server::SendResponses(const std::shared_ptr<Conn>& conn,
                           const Response* responses, size_t count,
                           bool close_after, FlushSpan* span) {
  Conn* c = conn.get();
  if (c->closed) return;
  const size_t before = c->write_buffer.size();
  for (size_t i = 0; i < count; ++i) {
    AppendResponse(responses[i], &c->write_buffer);
  }
  c->appended_total += c->write_buffer.size() - before;
#if CBTREE_OBS_ENABLED
  if (span != nullptr) {
    const uint64_t buffered_ns = ElapsedNs(start_time_);
    for (FlushSpanRequest& meta : span->requests) {
      meta.buffered_ns = buffered_ns;
      obs_stage_[static_cast<size_t>(meta.shard)].buffer.RecordNs(
          buffered_ns - meta.tree_end_ns);
    }
    span->end_offset = c->appended_total;
    c->flush_spans.push_back(std::move(*span));
  }
#else
  (void)span;
#endif
  // The peak backlog is right after the append, before the flush attempt
  // below shrinks it.
  const size_t backlog = c->unflushed();
  if (backlog > c->write_buffer_hwm) {
    c->write_buffer_hwm = backlog;
    if (backlog > c->loop->write_buffer_hwm.load(std::memory_order_relaxed)) {
      c->loop->write_buffer_hwm.store(backlog, std::memory_order_relaxed);
    }
  }
  if (close_after) c->close_after_flush = true;
  if (!FlushConn(c)) {
    CloseConn(conn);
  } else if (c->unflushed() > options_.max_write_buffer) {
    slow_consumer_drops_.fetch_add(1, std::memory_order_relaxed);
    c->loop->slow_consumer_drops.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
  } else if (c->unflushed() > 0) {
    SetWriteInterest(c, true);
  } else if (c->close_after_flush) {
    CloseConn(conn);
  }
}

void Server::BufferResponse(Conn* conn, const Response& response) {
  if (conn->closed) return;
  const size_t before = conn->write_buffer.size();
  AppendResponse(response, &conn->write_buffer);
  conn->appended_total += conn->write_buffer.size() - before;
}

bool Server::FlushConn(Conn* conn) {
  while (conn->unflushed() > 0) {
    ssize_t n = send(conn->fd, conn->write_buffer.data() + conn->write_pos,
                     conn->unflushed(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      conn->flushed_total += static_cast<uint64_t>(n);
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      CompleteFlushedSpans(conn);
      return true;
    }
    CompleteFlushedSpans(conn);  // spans already on the wire complete
    return false;                // EPIPE/ECONNRESET/...
  }
  if (conn->write_pos > 0) {
    conn->write_buffer.clear();
    conn->write_pos = 0;
  }
  CompleteFlushedSpans(conn);
  return true;
}

void Server::SetWriteInterest(Conn* conn, bool on) {
  if (conn->write_armed == on) return;
  conn->write_armed = on;
  epoll_event ev = {};
  ev.events = on ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn->fd;
  epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CompleteFlushedSpans(Conn* conn) {
#if CBTREE_OBS_ENABLED
  if (conn->flush_spans.empty() ||
      conn->flush_spans.front().end_offset > conn->flushed_total) {
    return;
  }
  // One stamp covers every span completed by this flush; requests a
  // connection drops before flushing never record flush/total (so
  // stage.flush.count == stage.total.count <= the other stages' counts).
  const uint64_t flushed_ns = ElapsedNs(start_time_);
  while (!conn->flush_spans.empty() &&
         conn->flush_spans.front().end_offset <= conn->flushed_total) {
    const FlushSpan& span = conn->flush_spans.front();
    for (const FlushSpanRequest& meta : span.requests) {
      StageTimers& stage = obs_stage_[static_cast<size_t>(meta.shard)];
      stage.flush.RecordNs(flushed_ns - meta.buffered_ns);
      stage.total.RecordNs(flushed_ns - meta.admit_ns);
      if (meta.sampled) EmitStageWaterfall(meta, flushed_ns);
    }
    conn->flush_spans.pop_front();
  }
#else
  (void)conn;
#endif
}

void Server::EmitStageWaterfall(const FlushSpanRequest& span,
                                uint64_t flushed_ns) {
  if (options_.trace == nullptr) return;
  struct StageEdge {
    const char* name;
    uint64_t begin_ns;
    uint64_t end_ns;
  };
  const StageEdge stages[] = {
      {"admit", span.admit_ns, span.start_ns},
      {"queue", span.start_ns, span.start_ns},
      {"batch", span.start_ns, span.tree_start_ns},
      {"tree", span.tree_start_ns, span.tree_end_ns},
      {"buffer", span.tree_end_ns, span.buffered_ns},
      {"flush", span.buffered_ns, flushed_ns},
  };
  for (const StageEdge& edge : stages) {
    obs::TraceEvent begin;
    begin.time = static_cast<double>(edge.begin_ns) * 1e-9;
    begin.kind = obs::TraceEventKind::kStageBegin;
    begin.id = span.id;
    begin.what = edge.name;
    begin.level = span.shard;
    options_.trace->Record(begin);
    obs::TraceEvent end;
    end.time = static_cast<double>(edge.end_ns) * 1e-9;
    end.kind = obs::TraceEventKind::kStageEnd;
    end.id = span.id;
    end.what = edge.name;
    end.level = span.shard;
    end.value = static_cast<double>(edge.end_ns - edge.begin_ns) * 1e-9;
    options_.trace->Record(end);
  }
}

void Server::HandleWritable(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  if (!FlushConn(conn.get())) {
    CloseConn(conn);
  } else if (conn->unflushed() == 0) {
    if (conn->close_after_flush) {
      CloseConn(conn);
    } else {
      SetWriteInterest(conn.get(), false);
    }
  }
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  const int fd = conn->fd;
  Loop* loop = conn->loop;
  epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  loop->conns.erase(fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  TraceConn(obs::TraceEventKind::kConnClose, conn->id);
}

bool Server::LoopIdle(Loop* loop) {
  // in_flight_ is server-wide and a batch leaves it only once its owning
  // loop has acknowledged it, so no loop exits while any ack is executing,
  // parked on a log, or posted to an inbox.
  if (in_flight_.load(std::memory_order_acquire) != 0) return false;
  {
    MutexLock guard(&loop->mu);
    if (!loop->adopted_fds.empty()) return false;
  }
  for (auto& [fd, conn] : loop->conns) {
    (void)fd;
    if (conn->unflushed() > 0) return false;
  }
  return true;
}

}  // namespace net
}  // namespace cbtree
