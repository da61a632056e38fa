// Sharded, multi-event-loop epoll TCP server exposing hash-partitioned
// concurrent B-trees (ctree/) over the length-prefixed frame protocol in
// net/protocol.h.
//
// Scaling model: the key space is hash-partitioned across `shards`
// independent trees (ShardOfKey in protocol.h). Shards are data partitions,
// not thread partitions: `loops` event-loop threads each own their own epoll
// set, wake eventfd and connections, and run every batch they decode to
// completion themselves, on whichever shard's tree its keys map to. Every
// loop binds its own listen socket to the same port via SO_REUSEPORT so the
// kernel spreads accepts across loops; where that fails (or when forced for
// tests), loop 0 owns the single listen fd and hands accepted fds to the
// other loops round-robin.
//
// Batching: while draining one connection's read buffer, adjacent admitted
// requests that map to the same shard are grouped into one batch — one tree
// pass on the loop executes the whole group and appends every response to
// the connection's write buffer at once. Groups never span shards or
// connections, and responses still carry ids because a write batch whose
// acks wait for durability completes after later batches.
//
// Durability: with the write-ahead log on, a write batch's acks park on its
// last LSN; once that LSN is durable, the shard's log writer posts the
// executed batch to the owning loop's inbox and wakes the loop, which sends
// the acks. Only the owning loop ever touches a connection (and Shutdown,
// once every loop has exited).
//
// Backpressure: a single server-wide admission budget (`max_inflight`)
// spans all loops and shards; frames beyond it are answered kRejected with
// a retry hint — the service-level analogue of the paper's saturation
// point: past it an open system's queue grows without bound, so the server
// sheds load instead of queueing. A loop holds the budget of everything it
// takes in during one pass over its ready connections until the pass ends
// (and a parked write batch holds it until acked): while a pass runs, new
// arrivals pile up in the sockets, the next pass reads them all at once,
// and past saturation that backlog outgrows the budget and is rejected.
// Rejections are buffered and flushed once per read, so shedding a frame
// costs the loop less than serving it.
//
// Graceful drain: Shutdown() (or a SignalDrain trigger wired in by the
// caller) stops accepting on every loop, answers new frames with
// kShuttingDown, lets admitted requests finish, flushes every write buffer,
// then closes. The server stays `running()` until the LAST loop exits, and
// the accounting invariant — requests == completed + rejected +
// shutdown_rejected — holds summed across all loops and shards: every frame
// that reaches any loop gets exactly one response.

#ifndef CBTREE_NET_SERVER_H_
#define CBTREE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/analyzer.h"
#include "ctree/ctree.h"
#include "net/protocol.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "wal/log_writer.h"

namespace cbtree {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port from Server::port()
  Algorithm algorithm = Algorithm::kLinkType;
  int node_size = 13;
  /// Keys preloaded before serving, drawn like `cbtree stress` does:
  /// uniform over [1, 2 * preload_items] so a driver using the same --items
  /// value hits the same key space. Each key lands in its ShardOfKey shard.
  uint64_t preload_items = 0;
  uint64_t seed = 1;
  /// Independent trees the key space is hash-partitioned across.
  int shards = 1;
  /// Event-loop threads; each owns an epoll set and (with SO_REUSEPORT) its
  /// own listen socket on the shared port, and executes the batches it
  /// decodes.
  int loops = 1;
  /// Largest run of adjacent same-shard requests from one connection that
  /// is batched into a single tree pass.
  size_t max_batch = 32;
  /// Admission budget, server-wide: requests admitted during the loops'
  /// current passes over their ready connections plus those whose acks
  /// await durability. Frames beyond it are rejected with a retry hint,
  /// never queued.
  size_t max_inflight = 1024;
  /// Retry hint returned with kRejected, in microseconds.
  int64_t retry_hint_us = 1000;
  /// A connection whose unread responses exceed this is dropped as a slow
  /// consumer (its buffer would otherwise grow without bound).
  size_t max_write_buffer = 1 << 20;
  /// Drain deadline for Shutdown(); connections still busy afterwards are
  /// closed hard.
  int drain_timeout_ms = 5000;
  /// Test-only: skip SO_REUSEPORT and exercise the accept round-robin
  /// fallback (loop 0 accepts, other loops adopt fds).
  bool force_accept_round_robin = false;
  /// Request-lifecycle events (op_arrive/op_complete/reject, conn
  /// open/close) go here when non-null; must be thread-safe and outlive the
  /// server.
  obs::TraceSink* trace = nullptr;
  /// Periodic stats snapshots: every `stats_interval_s` seconds loop 0
  /// samples the merged registry, diffs it against the previous sample, and
  /// retains the interval in a ring of `stats_ring` entries (live queries
  /// via kStats / history()). 0 disables the ticker. No-op when the build
  /// disables observability (CBTREE_OBS=OFF).
  double stats_interval_s = 0.0;
  size_t stats_ring = 64;
  /// When non-empty, every interval snapshot is appended to this file as
  /// one JSON line (a JSONL time series), including the final post-drain
  /// interval written by Shutdown().
  std::string stats_file;
  /// Prometheus-style plain-text exposition on a dedicated listener:
  /// -1 = off, 0 = ephemeral port (read it back from stats_port()).
  /// Served out-of-band from the data path. Requires CBTREE_OBS.
  int stats_port = -1;
  /// Full-span stage sampling: every Nth admitted request emits
  /// stage_begin/stage_end trace spans (admit/queue/tree/buffer/flush,
  /// keyed by request id) to `trace`, rendering as a per-request waterfall.
  /// 0 = off.
  uint64_t trace_sample = 0;
  /// Test-only: runs on the executing loop before each tree operation (e.g.
  /// a sleep that stretches service time so load overruns the budget).
  std::function<void(const Request&)> exec_delay_hook;

  /// Durability. Non-empty enables the write-ahead log: on Start the server
  /// recovers `wal_dir/shard-<s>/` into each shard's tree (validating CRCs,
  /// truncating the torn tail), then logs every insert/delete through a
  /// per-shard group-commit writer and acknowledges a write only once its
  /// LSN is durable. Empty (default) = no WAL, identical to the pre-WAL
  /// server.
  std::string wal_dir;
  wal::FsyncMode wal_fsync = wal::FsyncMode::kData;
  /// Group-commit coalescing window, microseconds: the longest a record
  /// waits for company, counted from its group's first append (see
  /// wal::WalOptions).
  uint32_t wal_group_commit_us = 200;
  uint64_t wal_segment_bytes = 64ull << 20;
  /// Paper §7 lock-retention policy applied live by the trees (kNone: no
  /// thread waits; the shard's WAL writer releases a batch's acks once the
  /// batch's last LSN is durable).
  RecoveryPolicy wal_retention = RecoveryPolicy::kNone;
};

/// One shard's slice of the work (indexes match ShardOfKey).
struct ShardServerStats {
  uint64_t executed = 0;          ///< tree operations completed here
  uint64_t batches = 0;           ///< batches (tree passes) run on loops
  uint64_t batched_requests = 0;  ///< requests that shared a pass (size > 1)
  size_t tree_size = 0;           ///< keys in this shard's tree
};

/// One event loop's slice (index = loop id).
struct LoopServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_received = 0;
  uint64_t stats_requests = 0;       ///< kStats admin frames answered here
  uint64_t slow_consumer_drops = 0;  ///< slow-consumer conns owned by this loop
  size_t write_buffer_hwm = 0;  ///< max unflushed bytes on any conn here
};

/// Durability accounting, summed over the per-shard logs (all from
/// wal::WalStats plain atomics plus the Start-time recovery results, so the
/// serve report's amortization numbers survive CBTREE_OBS=OFF).
struct WalServerStats {
  bool enabled = false;
  uint64_t appends = 0;  ///< records logged (== durable commits on drain)
  uint64_t groups = 0;   ///< group flushes (one write(2) each)
  uint64_t fsyncs = 0;   ///< fsync/fdatasync calls (0 under --fsync=off)
  uint64_t bytes = 0;    ///< record bytes written
  uint64_t max_group = 0;        ///< largest single group, in records
  /// Appends and fsyncs since the listeners opened: the serving window,
  /// with the Start-time preload (logged and synced before listening)
  /// excluded. Group-commit amortization is judged on these.
  uint64_t serving_appends = 0;
  uint64_t serving_fsyncs = 0;
  uint64_t segments = 0;         ///< segment files opened this run
  uint64_t replayed_records = 0;     ///< recovered on Start
  uint64_t replayed_segments = 0;    ///< segment files scanned on Start
  uint64_t truncated_bytes = 0;      ///< torn-tail bytes cut on Start
};

/// Functional accounting (plain atomics, alive even with CBTREE_OBS=OFF).
/// completed + rejected + shutdown_rejected + bad_frames equals every frame
/// ever answered; requests_received counts well-formed frames only. The
/// top-level counters are server-wide sums over all loops and shards; the
/// per-shard/per-loop vectors break the same work down.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t requests_received = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t shutdown_rejected = 0;
  uint64_t bad_frames = 0;
  uint64_t slow_consumer_drops = 0;
  /// kStats admin frames answered; out-of-band, NOT in requests_received.
  uint64_t stats_requests = 0;
  /// Max unflushed response bytes observed on any single connection.
  size_t write_buffer_hwm = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t batches = 0;           ///< sum of ShardServerStats::batches
  uint64_t batched_requests = 0;  ///< sum of ShardServerStats::batched_requests
  bool reuseport = false;  ///< per-loop listen fds (vs accept round-robin)
  WalServerStats wal;
  std::vector<ShardServerStats> shards;
  std::vector<LoopServerStats> loops;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Implies Shutdown() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, preloads the shard trees, and spawns the event loops.
  /// Returns false (with *error filled) on socket failure.
  bool Start(std::string* error);

  /// Port actually bound (valid after Start).
  int port() const { return port_; }

  /// Begins the graceful drain and blocks until every event loop has exited
  /// and every shard log is closed. Idempotent.
  void Shutdown();

  /// True until the last event loop exits (Shutdown() or a fatal error).
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Blocks until `fd` (e.g. SignalDrain::wake_fd()) is readable, then
  /// drains. Returns immediately if the server never started.
  void ServeUntil(int wake_fd);

  ServerStats stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_loops() const { return static_cast<int>(loops_.size()); }

  /// The served tree of one shard (for invariant checks and latch telemetry
  /// once quiescent).
  ConcurrentBTree* tree(int shard = 0);

  /// One shard's write-ahead log (null when durability is off), e.g. to
  /// read its DurableLsn().
  const wal::ShardLog* wal_log(int shard = 0) const;

  /// Runs CheckInvariants on every shard tree (quiescent callers only).
  void CheckAllInvariants() const;

  /// Server-side metrics registry (request/service timers, op counters,
  /// per-shard batch counters, per-shard stage histograms).
  const obs::Registry& metrics() const { return obs_; }

  /// One merged cumulative snapshot of everything the server knows: the
  /// metrics registry, the functional atomics (injected as "srv.*" counters
  /// and gauges so they are present even under CBTREE_OBS=OFF), per-shard
  /// tree sizes/in-flight, and per-level latch-wait telemetry folded across
  /// shards ("latch.L<n>.*"). This one view feeds the stats ticker, the
  /// kStats admin frame, the Prometheus listener, and the final snapshot,
  /// so they can never disagree.
  obs::Snapshot MergedSnapshot() const;

  /// Recorded interval snapshots, oldest first (empty when the ticker is
  /// off). The final interval is recorded by Shutdown() after the drain, so
  /// post-shutdown the interval deltas sum exactly to the final cumulative
  /// totals.
  std::vector<obs::IntervalSnapshot> history() const;

  /// Renders the body of a kStats reply (also used by `cbtree stat`'s
  /// in-process tests).
  std::string BuildStatsBody(StatsFormat format) const;

  /// Port of the Prometheus text listener (valid after Start when
  /// options.stats_port >= 0 and the build has observability; -1 otherwise).
  int stats_port() const { return stats_port_actual_; }

 private:
  struct Conn;
  struct Loop;
  struct Shard;

  /// One admitted request plus its stage-timing identity. All timestamps
  /// are nanoseconds since start_time_ (0 when stage timing is compiled
  /// out).
  struct AdmittedRequest {
    Request req;
    uint64_t admit_ns = 0;
    bool sampled = false;  ///< emit a stage waterfall for this request
  };

  /// Adjacent same-shard admitted requests awaiting one tree pass.
  struct Batch {
    int shard = -1;
    std::vector<AdmittedRequest> requests;
  };

  /// Stage metadata for responses appended to a connection's write buffer,
  /// completed (flush/total timers, sampled waterfalls) once the buffer has
  /// flushed past `end_offset`.
  struct FlushSpanRequest {
    uint64_t id = 0;
    OpCode op = OpCode::kSearch;
    int shard = 0;
    bool sampled = false;
    uint64_t admit_ns = 0;
    uint64_t start_ns = 0;  ///< the batch's tree pass began
    uint64_t tree_start_ns = 0;
    uint64_t tree_end_ns = 0;
    uint64_t buffered_ns = 0;
  };
  struct FlushSpan {
    uint64_t end_offset = 0;  ///< conn->appended_total after the append
    std::vector<FlushSpanRequest> requests;
  };

  /// One executed batch: everything CompleteBatch needs. When its writes
  /// are not yet durable it moves into a WhenDurable callback, and from there
  /// into the owning loop's inbox.
  struct ExecutedBatch {
    std::shared_ptr<Conn> conn;
    int shard = 0;
    uint64_t start_ns = 0;
    std::vector<AdmittedRequest> requests;
    std::vector<Response> responses;
    FlushSpan span;  ///< stage metadata (left empty when obs is compiled out)
  };

  /// Per-shard stage timers (log2-ns histograms). The six stages plus the
  /// end-to-end total are recorded from shared timestamps, so per request
  /// admit + queue + batch + tree + buffer + flush == total in exact
  /// integer ns (the telescoping identity tests/net_stats_test.cc checks).
  /// A batch runs on the loop that decoded it, so one stamp is both its
  /// submission and its start, and `queue` is 0 by construction; the name
  /// stays because readers key on the six stage names.
  struct StageTimers {
    obs::Timer admit;   ///< admission -> the batch's tree pass begins
    obs::Timer queue;   ///< always 0: nothing sits between submit and start
    obs::Timer batch;   ///< pass begins -> this request's own op starts
    obs::Timer tree;    ///< the tree operation itself
    obs::Timer buffer;  ///< tree done -> durable -> back on the loop ->
                        ///< response bytes buffered
    obs::Timer flush;   ///< buffered -> last byte handed to the kernel
    obs::Timer total;   ///< admission -> flushed
  };

  bool StartListeners(std::string* error);
  void EventLoop(Loop* loop);
  void AcceptNew(Loop* loop);
  void AdoptConn(Loop* loop, int fd);
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Parses every complete frame in the read buffer, batching adjacent
  /// same-shard admissions; false on protocol error (connection must close
  /// after the error reply flushes).
  bool DrainReadBuffer(const std::shared_ptr<Conn>& conn);
  /// Admission control for one decoded frame: answers rejects inline, or
  /// appends to `batch` (running it first when the shard changes or the
  /// batch is full).
  void Admit(const std::shared_ptr<Conn>& conn, const Request& request,
             Batch* batch);
  /// Answers a kStats admin frame inline on the event loop: never enters
  /// the admission budget or a batch, and is counted in stats_requests_,
  /// not requests_received_.
  void HandleStatsRequest(const std::shared_ptr<Conn>& conn,
                          const Request& request);
  /// Runs the pending batch (if any) to completion on this loop: one tree
  /// pass, then its acks go out at once, or, when its writes are not yet
  /// durable, park on the shard log until the writer posts them back here.
  void FlushBatch(const std::shared_ptr<Conn>& conn, Batch* batch);
  /// Acknowledges a batch whose writes are durable: counts completions,
  /// buffers the responses, and adds the batch's admission budget to its
  /// loop's acked_this_pass, released when the pass ends. Runs on the
  /// owning loop, or in Shutdown once every loop has exited.
  void CompleteBatch(ExecutedBatch* batch);
  /// WhenDurable callback (a shard's WAL writer thread): hands the batch to
  /// its connection's loop and wakes it.
  void PostDurable(ExecutedBatch batch);
  /// Appends (and opportunistically flushes) responses. `close_after`
  /// closes the connection once the buffer drains. `span` (optional)
  /// carries the stage metadata of these responses; it is stamped
  /// `buffered` and queued for completion when the bytes flush.
  void SendResponses(const std::shared_ptr<Conn>& conn,
                     const Response* responses, size_t count,
                     bool close_after = false, FlushSpan* span = nullptr);
  void SendResponse(const std::shared_ptr<Conn>& conn,
                    const Response& response, bool close_after = false) {
    SendResponses(conn, &response, 1, close_after);
  }
  /// Appends one response without a flush attempt; the caller makes sure
  /// a flush follows (DrainReadBuffer does, once per read).
  void BufferResponse(Conn* conn, const Response& response);
  /// Flushes conn->write_buffer with non-blocking sends. Returns false if
  /// the connection died mid-write.
  bool FlushConn(Conn* conn);
  /// Arms (or disarms) EPOLLOUT for a connection with unflushed bytes.
  void SetWriteInterest(Conn* conn, bool on);
  void TraceConn(obs::TraceEventKind kind, uint64_t conn_id);
  void TraceRequest(obs::TraceEventKind kind, const Request& request,
                    double seconds);
  /// Records flush/total stage timers (and emits sampled waterfalls) for
  /// every span whose bytes have fully reached the kernel.
  void CompleteFlushedSpans(Conn* conn);
  /// Emits the six stage_begin/stage_end span pairs of one sampled request.
  void EmitStageWaterfall(const FlushSpanRequest& span, uint64_t flushed_ns);
  /// Loop 0's periodic sampler: records one interval into the ring and
  /// appends it to the stats file.
  void RecordStatsTick();
  /// Dedicated Prometheus plain-text listener (own thread + socket).
  void StatsListenerLoop();
  /// True when no request is in flight anywhere and this loop's own
  /// connections have nothing left to flush.
  bool LoopIdle(Loop* loop);
  void WakeLoop(Loop* loop);

  ServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Start-time recovery totals (written single-threaded in Start, read-only
  // afterwards; surfaced through stats().wal).
  uint64_t wal_replayed_records_ = 0;
  uint64_t wal_replayed_segments_ = 0;
  uint64_t wal_truncated_bytes_ = 0;
  // WAL appends/fsyncs already counted when the listeners opened (the
  // preload), subtracted out of the serving-window figures.
  uint64_t wal_preload_appends_ = 0;
  uint64_t wal_preload_fsyncs_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  /// Serializes Shutdown against itself (signal-driven drain vs the
  /// destructor) and guards the final-snapshot state below.
  Mutex shutdown_mu_;
  std::chrono::steady_clock::time_point start_time_;

  int port_ = 0;
  bool reuseport_ = false;
  std::atomic<uint64_t> next_conn_id_{0};
  std::atomic<size_t> accept_rr_{0};  ///< fallback round-robin cursor

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> loops_exited_{0};
  std::atomic<size_t> in_flight_{0};

  // Functional counters, server-wide (see ServerStats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shutdown_rejected_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> slow_consumer_drops_{0};
  std::atomic<uint64_t> stats_requests_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> trace_sample_seq_{0};

  obs::Registry obs_;
  obs::Counter obs_batches_;
  obs::Counter obs_batched_requests_;
  obs::Timer obs_service_ns_;  ///< tree operation only
  obs::Timer obs_request_ns_;  ///< admission to response append
  std::vector<StageTimers> obs_stage_;  ///< per shard, index = shard id

  // Periodic snapshots (ticker on loop 0; final interval from Shutdown).
  std::unique_ptr<obs::SnapshotRing> stats_ring_;
  std::FILE* stats_file_ = nullptr;
  bool final_snapshot_done_ CBTREE_GUARDED_BY(shutdown_mu_) = false;

  // Prometheus text listener (own thread, out of band).
  std::thread stats_thread_;
  int stats_listen_fd_ = -1;
  int stats_port_actual_ = -1;
  std::atomic<bool> stats_stop_{false};
};

}  // namespace net
}  // namespace cbtree

#endif  // CBTREE_NET_SERVER_H_
