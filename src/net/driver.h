// Open-loop Poisson load driver for the net/ service — the live-system
// counterpart of the simulator's arrival process.
//
// Open loop means arrivals do not wait for completions: the driver draws a
// Poisson schedule up front (rate lambda split as lambda/N independent
// exponential streams over N connections, whose superposition is again
// Poisson(lambda)) and sends each request at its scheduled instant whether
// or not earlier ones have been answered. Response time is measured from
// the *scheduled* arrival, so a backlogged server shows the queueing delay
// the paper's open model predicts instead of the coordinated-omission
// artifact a closed driver would report.
//
// Each connection runs a sender thread (sleep-until-schedule, send) and a
// receiver thread (match responses by id); rejected requests (the server's
// saturation signal) are counted separately and excluded from the latency
// distribution. The accounting invariant the report asserts over a clean
// run: sent == completed + rejected, errors == unanswered == 0.

#ifndef CBTREE_NET_DRIVER_H_
#define CBTREE_NET_DRIVER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/params.h"
#include "obs/trace.h"
#include "stats/accumulator.h"

namespace cbtree {
namespace net {

struct DriveOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  double lambda = 1000.0;  ///< aggregate arrivals per second
  double duration_seconds = 5.0;
  int connections = 4;
  OperationMix mix;
  /// Zipf skew for search/delete keys (rank-skew over the key space, the
  /// same sampler the in-process workload uses); inserts stay uniform.
  double zipf_skew = 0.0;
  /// Keys are drawn from [1, key_space]; match the server's preload space
  /// (2 * its --items) to get the intended hit rate.
  uint64_t key_space = 80000;
  uint64_t seed = 1;
  /// Shard count of the server being driven. Used only for occupancy
  /// accounting: each request is attributed to ShardOfKey(key, shards), the
  /// same partition function the server routes with, so the report's
  /// per-shard sent/completed vectors mirror the server's own breakdown.
  int shards = 1;
  /// Latency histogram range (quantiles interpolate above it).
  double histogram_limit_seconds = 100.0;
  /// How long after the last send to wait for stragglers.
  double drain_timeout_seconds = 10.0;
  /// op_arrive / op_complete / reject per request when non-null (must be
  /// thread-safe and outlive the run).
  obs::TraceSink* trace = nullptr;
};

struct DriveReport {
  bool connect_ok = false;
  std::string error;  ///< connect failure reason when !connect_ok

  uint64_t sent = 0;
  uint64_t completed = 0;   ///< substantive replies (found ... delete_miss)
  uint64_t rejected = 0;    ///< kRejected + kShuttingDown backpressure
  uint64_t errors = 0;      ///< transport failures, unmatched or bad replies
  uint64_t unanswered = 0;  ///< still outstanding at the drain deadline

  /// Per-shard occupancy (index = ShardOfKey shard id, size =
  /// DriveOptions::shards): requests sent into / substantively answered by
  /// each shard. Rejected and errored requests count in shard_sent only.
  std::vector<uint64_t> shard_sent;
  std::vector<uint64_t> shard_completed;

  double wall_seconds = 0.0;  ///< start of schedule to last receiver exit

  /// Response time in seconds from scheduled arrival to reply, completed
  /// requests only.
  Accumulator search;
  Accumulator insert;
  Accumulator del;
  Accumulator all;
  Histogram latencies;
  /// Requests outstanding over time (the live N-bar of the paper's model),
  /// time-weighted across the run.
  TimeWeightedAccumulator active_ops;
  /// Scheduled-to-actual send delay: how faithfully the open-loop schedule
  /// was kept (grows when the sender itself becomes the bottleneck).
  Accumulator send_lag;
};

/// The response-time histogram drive records into: log-scale buckets 2%
/// wide from 1 us up to `limit_seconds`, so every reported percentile is
/// exact to 2% whether it is 40 us or 4 s.
Histogram LatencyHistogram(double limit_seconds);

DriveReport RunDrive(const DriveOptions& options);

/// SimPoint-shape-compatible JSON (kind "drive"): same "stats" fields as
/// `cbtree simulate --json` — resp_p50/p95/p99, completed, mean_active_ops
/// — plus service-level counters (sent/rejected/errors/unanswered),
/// achieved throughput, and a top-level "build" provenance object, so
/// response-time-vs-lambda curves from the analyzer, the simulator, and
/// the live service overlay directly and every curve names the build that
/// produced it. `server_stats_json`, when non-null, must be the raw JSON
/// body of a kStats reply and is embedded verbatim as a top-level "server"
/// field (`cbtree drive --server_stats`).
void WriteDriveJson(std::ostream& out, const std::string& algorithm,
                    const DriveOptions& options, const DriveReport& report,
                    bool include_timing,
                    const std::string* server_stats_json = nullptr);

}  // namespace net
}  // namespace cbtree

#endif  // CBTREE_NET_DRIVER_H_
