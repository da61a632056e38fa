// perfgen: the load generator and in-process tree runner of the cbtree
// benchmark (see perfbench/README.md). It drives only public entry points:
//
//   perfgen serve ...   open-loop / closed-loop request frames over TCP to
//                       `cbtree serve` (net::AppendRequest/DecodeResponse),
//                       with kStats reads (net::Client::Stats) at every
//                       phase edge, and a per-key oracle on every reply.
//   perfgen tree ...    ConcurrentBTree::{Search,Insert,Delete} from
//                       threads in this process, plus stats()/epoch stats.
//   perfgen selftest    checks the quantile code and schedule determinism.
//   perfgen provenance  prints the build provenance line it was linked with.
//
// Everything it prints is one JSON document on stdout; perfbench/run.py
// turns it into the benchmark's metrics.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/build_info.h"
#include "util/flags.h"
#include "ctree/ctree.h"
#include "ctree/olc_tree.h"
#include "net/client.h"
#include "net/protocol.h"

namespace perf {
namespace {

using cbtree::Key;
using cbtree::Value;
namespace net = cbtree::net;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfgen: %s\n", message.c_str());
  std::exit(2);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Deterministic inputs. Everything below is a pure function of the seed, so
// the same --seed gives the same schedule (checked by `selftest`).

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix64(state_);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (s = 0: uniform), scattered over the key space
/// [1, n] by a fixed multiplicative permutation so hot keys spread across
/// shards and tree leaves.
class KeyDist {
 public:
  static constexpr uint64_t kScatter = 1000003;  // prime

  KeyDist(uint64_t n, double s) : n_(n) {
    if (n == 0 || n % kScatter == 0) Die("bad key space size");
    if (s > 0.0) {
      cdf_.resize(n);
      double sum = 0.0;
      for (uint64_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf_[r] = sum;
      }
      for (double& c : cdf_) c /= sum;
    }
  }

  Key Draw(Rng& rng) const {
    uint64_t rank;
    if (cdf_.empty()) {
      rank = rng.Below(n_);
    } else {
      const double u = rng.Uniform();
      rank = static_cast<uint64_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      if (rank >= n_) rank = n_ - 1;
    }
    return static_cast<Key>(
        static_cast<uint64_t>((static_cast<unsigned __int128>(rank) *
                               kScatter) %
                              n_) +
        1);
  }

  uint64_t size() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

enum class Op : uint8_t { kSearch = 0, kInsert = 1, kDelete = 2 };
const char* OpName(Op op) {
  switch (op) {
    case Op::kSearch:
      return "search";
    case Op::kInsert:
      return "insert";
    case Op::kDelete:
      return "delete";
  }
  return "?";
}

struct OpMix {
  double search = 0.95, insert = 0.03, del = 0.02;
  Op Pick(Rng& rng) const {
    const double u = rng.Uniform() * (search + insert + del);
    if (u < search) return Op::kSearch;
    if (u < search + insert) return Op::kInsert;
    return Op::kDelete;
  }
};

struct Planned {
  int64_t at_ns = 0;  ///< scheduled send, relative to the phase start
  Key key = 0;
  Value value = 0;
  Op op = Op::kSearch;
};

/// Draws ops (and, for open-loop phases, Poisson arrival times).
class OpSource {
 public:
  OpSource(uint64_t seed, const KeyDist* keys, OpMix mix)
      : rng_(seed), keys_(keys), mix_(mix), seed_(seed) {}

  Planned Next() {
    Planned p;
    p.op = mix_.Pick(rng_);
    p.key = keys_->Draw(rng_);
    p.value = static_cast<Value>(
        Mix64(seed_ ^ (++seq_ * 0x2545f4914f6cdd1dull)) >> 2);
    return p;
  }
  double Exp(double rate) { return -std::log1p(-rng_.Uniform()) / rate; }

 private:
  Rng rng_;
  const KeyDist* keys_;
  OpMix mix_;
  uint64_t seed_;
  uint64_t seq_ = 0;
};

std::vector<Planned> PlanOpenLoop(uint64_t seed, double rate, double seconds,
                                  const KeyDist& keys, OpMix mix) {
  OpSource source(seed, &keys, mix);
  std::vector<Planned> plan;
  plan.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
  double t = source.Exp(rate);
  while (t < seconds) {
    Planned p = source.Next();
    p.at_ns = static_cast<int64_t>(t * 1e9);
    plan.push_back(p);
    t += source.Exp(rate);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Exact quantiles: nearest rank over the full sample (no histogram).

struct Quantiles {
  size_t n = 0;
  double mean = 0, p50 = 0, p99 = 0, p999 = 0, max = 0;
};

double NearestRank(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return static_cast<double>(sorted[rank - 1]);
}

Quantiles Summarize(std::vector<int64_t> v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (int64_t x : v) sum += static_cast<double>(x);
  q.mean = sum / static_cast<double>(v.size());
  q.p50 = NearestRank(v, 0.50);
  q.p99 = NearestRank(v, 0.99);
  q.p999 = NearestRank(v, 0.999);
  q.max = static_cast<double>(v.back());
  return q;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Host steal. On a shared VM the hypervisor at times runs another guest on
// this VM's CPUs; a latch holder or an event loop stalled that way stalls
// everything queued behind it, so throughput and latency then measure the
// host, not the program. Every measurement is taken in short windows, each
// tagged with the share of the VM's CPU time stolen during it, and metrics
// pool only the windows the host left alone (CleanWindows).

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  uint64_t v = 0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealFrac(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

struct Window {
  int64_t begin_ns = 0;  ///< steady-clock ns
  int64_t end_ns = 0;
  double steal = 0;       ///< share of the VM's CPU time stolen
  double rate = -1;       ///< ops/s completed within it; < 0: not counted
};

/// Windows with at most this steal count as clean.
constexpr double kMaxCleanSteal = 0.05;

/// Pools windows and keeps the clean ones; when fewer than a quarter are
/// clean, it keeps the least-stolen quarter instead, so a metric always
/// rests on at least a quarter of the run.
class WindowFilter {
 public:
  explicit WindowFilter(std::vector<Window> windows)
      : windows_(std::move(windows)), keep_(windows_.size(), false) {
    std::sort(windows_.begin(), windows_.end(),
              [](const Window& a, const Window& b) {
                return a.begin_ns < b.begin_ns;
              });
    size_t clean = 0;
    for (size_t i = 0; i < windows_.size(); ++i) {
      keep_[i] = windows_[i].steal <= kMaxCleanSteal;
      clean += keep_[i];
    }
    const size_t quarter = (windows_.size() + 3) / 4;
    if (clean < quarter) {
      std::vector<size_t> order(windows_.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return windows_[a].steal < windows_[b].steal;
      });
      keep_.assign(windows_.size(), false);
      for (size_t i = 0; i < quarter; ++i) keep_[order[i]] = true;
    }
  }

  /// True iff `t_ns` lies in a kept window.
  bool Kept(int64_t t_ns) const {
    auto it = std::upper_bound(
        windows_.begin(), windows_.end(), t_ns,
        [](int64_t t, const Window& w) { return t < w.begin_ns; });
    if (it == windows_.begin()) return false;
    const size_t i = static_cast<size_t>(it - windows_.begin()) - 1;
    return t_ns < windows_[i].end_ns && keep_[i];
  }

  std::vector<double> KeptRates() const {
    std::vector<double> rates;
    for (size_t i = 0; i < windows_.size(); ++i) {
      if (keep_[i] && windows_[i].rate >= 0) rates.push_back(windows_[i].rate);
    }
    return rates;
  }

  void AppendJson(class Json& j) const;

 private:
  std::vector<Window> windows_;
  std::vector<bool> keep_;
};

// ---------------------------------------------------------------------------
// Tiny JSON writer (numbers keep all their digits).

class Json {
 public:
  Json& Raw(const std::string& text) {
    Sep();
    out_ += text;
    return *this;
  }
  Json& Key(const char* k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    pending_key_ = true;
    return *this;
  }
  Json& Num(double v) {
    char buf[40];
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(buf);
  }
  Json& Int(uint64_t v) { return Raw(std::to_string(v)); }
  Json& Str(const std::string& s) { return Raw("\"" + s + "\""); }
  Json& Bool(bool b) { return Raw(b ? "true" : "false"); }
  Json& Open(char c) {
    Raw(std::string(1, c));
    first_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  Json& NumArray(const std::vector<double>& v) {
    Open('[');
    for (double x : v) Num(x);
    return Close(']');
  }
  Json& Q(const Quantiles& q) {
    Open('{');
    Key("n").Int(q.n);
    Key("mean").Num(q.mean);
    Key("p50").Num(q.p50);
    Key("p99").Num(q.p99);
    Key("p999").Num(q.p999);
    Key("max").Num(q.max);
    return Close('}');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!first_ && !out_.empty()) out_ += ',';
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
  bool pending_key_ = false;
};

void WindowFilter::AppendJson(Json& j) const {
  size_t kept = 0;
  double steal_all = 0, steal_kept = 0;
  for (size_t i = 0; i < windows_.size(); ++i) {
    steal_all += windows_[i].steal;
    if (keep_[i]) {
      ++kept;
      steal_kept += windows_[i].steal;
    }
  }
  j.Open('{');
  j.Key("count").Int(windows_.size());
  j.Key("kept").Int(kept);
  j.Key("steal_mean").Num(windows_.empty() ? 0 : steal_all / windows_.size());
  j.Key("kept_steal_mean").Num(kept ? steal_kept / kept : 0);
  j.Close('}');
}

// ---------------------------------------------------------------------------
// Flag values.

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

OpMix ParseMix(const std::string& s) {
  auto parts = Split(s, ',');
  if (parts.size() != 3) Die("--mix wants search,insert,delete");
  return OpMix{std::stod(parts[0]), std::stod(parts[1]), std::stod(parts[2])};
}

// ---------------------------------------------------------------------------
// Serving: one thread, N non-blocking connections, one epoll set polled
// without sleeping (the generator owns its core).

/// Per-key model learned from replies: unknown until the first reply, then
/// checked against every later reply and updated by every write.
struct Oracle {
  enum : uint8_t { kUnknown = 0, kPresent = 1, kAbsent = 2 };
  std::vector<uint8_t> state;
  std::vector<Value> value;
  uint64_t mismatches = 0;

  explicit Oracle(uint64_t keys) : state(keys + 1), value(keys + 1) {}

  void Mismatch(Key key, const char* what) {
    if (++mismatches <= 10) {
      std::fprintf(stderr, "perfgen: oracle mismatch on key %" PRId64 ": %s\n",
                   key, what);
    }
  }

  /// Checks one reply against the model and applies it. Rejected and
  /// shutting-down replies are failures but not wrong answers; the caller
  /// counts them.
  void Apply(Op op, Key key, Value sent_value, const net::Response& r) {
    uint8_t& st = state[static_cast<size_t>(key)];
    Value& val = value[static_cast<size_t>(key)];
    if (r.status == net::Status::kRejected ||
        r.status == net::Status::kShuttingDown) {
      return;
    }
    switch (op) {
      case Op::kSearch:
        if (r.status == net::Status::kFound) {
          if (st == kAbsent) Mismatch(key, "found a deleted key");
          if (st == kPresent && val != r.value) Mismatch(key, "wrong value");
          st = kPresent;
          val = r.value;
        } else if (r.status == net::Status::kNotFound) {
          if (st == kPresent) Mismatch(key, "lost a present key");
          st = kAbsent;
        } else {
          Mismatch(key, "bad search status");
        }
        break;
      case Op::kInsert:
        if (r.status == net::Status::kInserted) {
          if (st == kPresent) Mismatch(key, "insert saw no prior value");
        } else if (r.status == net::Status::kUpdated) {
          if (st == kAbsent) Mismatch(key, "insert updated a deleted key");
        } else {
          Mismatch(key, "bad insert status");
        }
        st = kPresent;
        val = sent_value;
        break;
      case Op::kDelete:
        if (r.status == net::Status::kDeleted) {
          if (st == kAbsent) Mismatch(key, "deleted a deleted key");
        } else if (r.status == net::Status::kDeleteMiss) {
          if (st == kPresent) Mismatch(key, "delete missed a present key");
        } else {
          Mismatch(key, "bad delete status");
        }
        st = kAbsent;
        break;
    }
  }

  void Save(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    const uint64_t n = state.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(state.data()),
              static_cast<std::streamsize>(n));
    out.write(reinterpret_cast<const char*>(value.data()),
              static_cast<std::streamsize>(n * sizeof(Value)));
    if (!out) Die("cannot write " + path);
  }
  void Load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || n != state.size()) Die("bad oracle file " + path);
    in.read(reinterpret_cast<char*>(state.data()),
            static_cast<std::streamsize>(n));
    in.read(reinterpret_cast<char*>(value.data()),
            static_cast<std::streamsize>(n * sizeof(Value)));
    if (!in) Die("short oracle file " + path);
  }
  uint64_t Known() const {
    uint64_t n = 0;
    for (uint8_t s : state) n += s != kUnknown;
    return n;
  }
};

struct PhaseSpec {
  std::string name;
  std::string kind;  ///< open | closed | verify
  double param = 0;  ///< open: rate/s; closed/verify: window per connection
  double seconds = 0;
};

struct Rec {
  int64_t sched_ns = -1;  ///< relative to phase start
  int64_t send_ns = -1;
  int64_t reply_ns = -1;
  Key key = 0;
  Value value = 0;
  Op op = Op::kSearch;
  uint8_t status = 0;
  uint8_t conn = 0;
  bool deferred = false;
};

struct PhaseResult {
  PhaseSpec spec;
  std::vector<Rec> recs;
  uint64_t completed = 0, rejected = 0, unanswered = 0, deferred = 0;
  uint64_t answered_in_phase = 0;  ///< replies by the phase's scheduled end
  uint64_t mismatches_before = 0, mismatches_after = 0;
  double elapsed_s = 0;
  int64_t t0 = 0;                ///< steady-clock start; Rec times are relative
  std::vector<Window> windows;   ///< 100 ms, with steal; closed loop: rates
  std::string stats_after;
  uint64_t cpu_ticks_after = 0;
};

uint64_t ProcessCpuTicks(int pid) {
  if (pid <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::stringstream rest(line.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return utime + stime;
}

/// Value of `"name":<number>` in a stats body (0 when absent).
uint64_t JsonCounter(const std::string& body, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

/// Sum of the `count` fields of every timer whose name starts with `prefix`.
uint64_t JsonTimerCounts(const std::string& body, const std::string& prefix) {
  uint64_t sum = 0;
  size_t at = 0;
  const std::string needle = "\"" + prefix;
  while ((at = body.find(needle, at)) != std::string::npos) {
    const size_t count = body.find("\"count\":", at);
    if (count == std::string::npos) break;
    sum += std::strtoull(body.c_str() + count + 8, nullptr, 10);
    at = count;
  }
  return sum;
}

class LoadClient {
 public:
  LoadClient(const std::string& host, int port, int conns, uint64_t keys,
             int server_pid)
      : oracle_(keys), inflight_(keys + 1), server_pid_(server_pid) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) Die("epoll_create1 failed");
    std::string error;
    if (!stats_.Connect(host, port, &error)) Die("stats connect: " + error);
    // The server spreads connections over its event loops by a hash of the
    // source port (SO_REUSEPORT), so 4 connections land 2:2, 3:1 or 4:0 by
    // chance, and p50 and peak_rps moved ~20% between runs with the split.
    // Each new connection therefore probes its loop with one kStats frame
    // (counted per loop, outside the request accounting) and is replaced
    // until every loop holds its share.
    std::optional<std::string> first = stats_.Stats(net::StatsFormat::kJson);
    if (!first) Die("kStats read failed");
    std::string previous = std::move(*first);
    std::vector<int> per_loop(static_cast<size_t>(LoopCount(previous)), 0);
    for (int c = 0; c < conns; ++c) {
      for (int attempt = 0;; ++attempt) {
        if (attempt == 64) Die("cannot spread connections over the loops");
        const int fd = ConnectTo(host, port);
        std::string body = SyncStats(fd);
        const size_t loop = ProbedLoop(previous, body);
        previous = std::move(body);
        const int share = (conns + static_cast<int>(per_loop.size()) - 1) /
                          static_cast<int>(per_loop.size());
        if (per_loop[loop] >= share) {
          close(fd);
          continue;
        }
        ++per_loop[loop];
        if (fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
          Die("cannot make a socket non-blocking");
        }
        epoll_event ev = {};
        ev.events = EPOLLIN;
        ev.data.u32 = static_cast<uint32_t>(c);
        epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
        conns_.emplace_back();
        conns_.back().fd = fd;
        break;
      }
    }
  }

  ~LoadClient() {
    for (Conn& c : conns_) close(c.fd);
    close(epoll_fd_);
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Oracle& oracle() { return oracle_; }

  /// Reads kStats once the server has recorded the stage timers of every
  /// completed request (flush timers land just after the bytes do).
  std::string QuiescentStats() {
    std::string body;
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::optional<std::string> s = stats_.Stats(net::StatsFormat::kJson);
      if (!s) Die("kStats read failed");
      body = std::move(*s);
      const uint64_t completed = JsonCounter(body, "srv.completed");
      const uint64_t totals = JsonTimerCounts(body, "stage.total_ns.");
      if (totals == completed || totals == 0) return body;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return body;
  }

  uint64_t CpuTicks() const { return ProcessCpuTicks(server_pid_); }

  PhaseResult Run(const PhaseSpec& spec, uint64_t seed, const KeyDist& keys,
                  OpMix mix, const std::vector<Key>& verify_keys) {
    PhaseResult result;
    result.spec = spec;
    result.mismatches_before = oracle_.mismatches;
    std::vector<Rec>& recs = result.recs;
    const bool open = spec.kind == "open";
    const bool verify = spec.kind == "verify";
    const int64_t duration_ns = static_cast<int64_t>(spec.seconds * 1e9);
    const int window = static_cast<int>(spec.param);
    std::vector<Planned> plan;
    if (open) {
      plan = PlanOpenLoop(seed, spec.param, spec.seconds, keys, mix);
      recs.reserve(plan.size());
    } else {
      recs.reserve(verify ? verify_keys.size()
                          : static_cast<size_t>(250000 * spec.seconds) + 1024);
    }
    OpSource closed_source(seed, &keys, mix);
    size_t next_plan = 0, next_verify = 0;
    const uint64_t base_id = next_id_;
    uint64_t outstanding = 0;
    std::vector<int> conn_outstanding(conns_.size(), 0);
    size_t rr = 0;
    const int64_t window_ns = 100'000'000;

    auto send_rec = [&](size_t idx, size_t c) {
      Rec& r = recs[idx];
      r.conn = static_cast<uint8_t>(c);
      net::Request req;
      req.op = r.op == Op::kSearch   ? net::OpCode::kSearch
               : r.op == Op::kInsert ? net::OpCode::kInsert
                                     : net::OpCode::kDelete;
      req.id = base_id + idx;
      req.key = r.key;
      req.value = r.value;
      Conn& conn = conns_[c];
      net::AppendRequest(req, &conn.out);
      conn.unsent.push_back({conn.out.size(), idx});
      inflight_[static_cast<size_t>(r.key)] = 1;
      ++outstanding;
      ++conn_outstanding[c];
    };

    const int64_t t0 = NowNs();
    result.t0 = t0;
    int64_t last_progress = t0;
    int64_t drain_deadline = -1;
    int64_t window_begin = 0;
    CpuTimes window_cpu = ReadCpuTimes();
    auto close_window = [&](int64_t now) {
      const CpuTimes cpu = ReadCpuTimes();
      result.windows.push_back(
          Window{t0 + window_begin, t0 + now, StealFrac(window_cpu, cpu), -1});
      window_cpu = cpu;
      window_begin = now;
    };
    while (true) {
      const int64_t now = NowNs() - t0;
      if (now - window_begin >= window_ns) close_window(now);
      if (open) {
        while (next_plan < plan.size() && plan[next_plan].at_ns <= now) {
          const Planned& p = plan[next_plan++];
          Rec r;
          r.sched_ns = p.at_ns;
          r.key = p.key;
          r.value = p.value;
          r.op = p.op;
          recs.push_back(r);
          const size_t idx = recs.size() - 1;
          const size_t c = rr++ % conns_.size();
          if (inflight_[static_cast<size_t>(p.key)]) {
            recs[idx].deferred = true;
            recs[idx].conn = static_cast<uint8_t>(c);
            deferred_[p.key].push_back(idx);
            ++result.deferred;
          } else {
            send_rec(idx, c);
          }
        }
      } else if (verify || now < duration_ns) {
        for (size_t c = 0; c < conns_.size(); ++c) {
          while (conn_outstanding[c] < window) {
            Rec r;
            r.sched_ns = now;
            if (verify) {
              if (next_verify >= verify_keys.size()) break;
              r.key = verify_keys[next_verify++];
              r.op = Op::kSearch;
            } else {
              // Never two requests in flight on one key: redraw instead.
              Planned p = closed_source.Next();
              for (int tries = 0;
                   inflight_[static_cast<size_t>(p.key)] && tries < 64;
                   ++tries) {
                p = closed_source.Next();
              }
              if (inflight_[static_cast<size_t>(p.key)]) break;
              r.key = p.key;
              r.value = p.value;
              r.op = p.op;
            }
            recs.push_back(r);
            send_rec(recs.size() - 1, c);
          }
        }
      }
      FlushWrites(recs, t0);
      const int ready =
          Poll(recs, t0, &outstanding, &conn_outstanding, base_id, send_rec);
      if (ready > 0) last_progress = NowNs();

      const bool sending_done =
          open ? next_plan >= plan.size()
               : (verify ? next_verify >= verify_keys.size()
                         : now >= duration_ns);
      if (sending_done && outstanding == 0 && deferred_.empty()) break;
      if (sending_done && drain_deadline < 0) drain_deadline = NowNs();
      if (drain_deadline >= 0 && NowNs() - last_progress > 10'000'000'000) {
        break;  // 10 s without a reply: the rest are unanswered
      }
    }
    const int64_t end = NowNs() - t0;
    result.elapsed_s = static_cast<double>(end) * 1e-9;
    if (end > window_begin) close_window(end);
    for (const Rec& r : recs) {
      if (r.reply_ns < 0) {
        ++result.unanswered;
        continue;
      }
      if (r.status == static_cast<uint8_t>(net::Status::kRejected) ||
          r.status == static_cast<uint8_t>(net::Status::kShuttingDown)) {
        ++result.rejected;
      } else {
        ++result.completed;
      }
      if (r.reply_ns <= duration_ns) ++result.answered_in_phase;
    }
    if (!open && !verify) {
      // Closed-loop rate: replies per window, for windows that end by the
      // phase's end (the drain after it does not count).
      std::vector<int64_t> replies;
      for (const Rec& r : recs) {
        if (r.reply_ns >= 0 && r.reply_ns < duration_ns) {
          replies.push_back(t0 + r.reply_ns);
        }
      }
      std::sort(replies.begin(), replies.end());
      for (Window& w : result.windows) {
        if (w.end_ns > t0 + duration_ns ||
            w.end_ns - w.begin_ns < window_ns / 2) {
          continue;
        }
        const auto n =
            std::lower_bound(replies.begin(), replies.end(), w.end_ns) -
            std::lower_bound(replies.begin(), replies.end(), w.begin_ns);
        w.rate = static_cast<double>(n) /
                 (static_cast<double>(w.end_ns - w.begin_ns) * 1e-9);
      }
    }
    // Leftover in-flight keys (unanswered) stay marked; clear them so a
    // later phase is not blocked forever.
    for (const Rec& r : recs) {
      if (r.reply_ns < 0) inflight_[static_cast<size_t>(r.key)] = 0;
    }
    deferred_.clear();
    for (Conn& c : conns_) {
      c.unsent.clear();
      c.out.clear();
      c.out_off = 0;
    }
    next_id_ = base_id + recs.size();
    result.mismatches_after = oracle_.mismatches;
    return result;
  }

 private:
  static int ConnectTo(const std::string& host, int port) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect failed: " + std::string(std::strerror(errno)));
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  /// One blocking kStats round trip on a blocking socket.
  std::string SyncStats(int fd) {
    net::Request req;
    req.op = net::OpCode::kStats;
    req.id = ++probe_id_;
    req.key = static_cast<Key>(net::StatsFormat::kJson);
    std::string frame;
    net::AppendRequest(req, &frame);
    if (send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      Die("kStats probe send failed");
    }
    std::string in;
    char buf[65536];
    while (true) {
      net::Response resp;
      size_t used = 0;
      const net::DecodeStatus ds = net::DecodeResponse(
          reinterpret_cast<const uint8_t*>(in.data()), in.size(), &resp, &used);
      if (ds == net::DecodeStatus::kOk) {
        if (resp.status != net::Status::kStats) Die("bad kStats probe reply");
        return resp.body;
      }
      if (ds == net::DecodeStatus::kError) Die("undecodable kStats reply");
      const ssize_t got = recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) Die("kStats probe recv failed");
      in.append(buf, static_cast<size_t>(got));
    }
  }

  static int LoopCount(const std::string& body) {
    int loops = 0;
    while (body.find("\"srv.loop" + std::to_string(loops) +
                     ".stats_requests\"") != std::string::npos) {
      ++loops;
    }
    if (loops == 0) Die("stats body names no event loops");
    return loops;
  }

  /// The loop whose kStats count rose between two bodies (each body counts
  /// the probe that produced it).
  static size_t ProbedLoop(const std::string& before,
                           const std::string& after) {
    for (int l = 0; l < LoopCount(after); ++l) {
      const std::string name =
          "srv.loop" + std::to_string(l) + ".stats_requests";
      if (JsonCounter(after, name) > JsonCounter(before, name)) {
        return static_cast<size_t>(l);
      }
    }
    Die("kStats probe landed on no loop");
  }

  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::deque<std::pair<size_t, size_t>> unsent;  ///< (end offset, rec)
    std::string in;
  };

  void FlushWrites(std::vector<Rec>& recs, int64_t t0) {
    for (Conn& c : conns_) {
      if (c.out_off >= c.out.size()) continue;
      const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        Die("send failed: " + std::string(std::strerror(errno)));
      }
      c.out_off += static_cast<size_t>(n);
      const int64_t now = NowNs() - t0;
      while (!c.unsent.empty() && c.unsent.front().first <= c.out_off) {
        recs[c.unsent.front().second].send_ns = now;
        c.unsent.pop_front();
      }
      if (c.out_off == c.out.size()) {  // every queued frame is stamped
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  template <typename SendFn>
  int Poll(std::vector<Rec>& recs, int64_t t0, uint64_t* outstanding,
           std::vector<int>* conn_outstanding, uint64_t base_id,
           SendFn& send_rec) {
    epoll_event events[16];
    const int n = epoll_wait(epoll_fd_, events, 16, 0);
    for (int e = 0; e < n; ++e) {
      Conn& c = conns_[events[e].data.u32];
      char buf[65536];
      while (true) {
        const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          c.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got == 0) Die("server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Die("recv failed: " + std::string(std::strerror(errno)));
      }
      const int64_t now = NowNs() - t0;
      size_t off = 0;
      while (true) {
        net::Response resp;
        size_t used = 0;
        const net::DecodeStatus ds = net::DecodeResponse(
            reinterpret_cast<const uint8_t*>(c.in.data()) + off,
            c.in.size() - off, &resp, &used);
        if (ds == net::DecodeStatus::kNeedMore) break;
        if (ds == net::DecodeStatus::kError) Die("undecodable response");
        off += used;
        if (resp.id < base_id || resp.id - base_id >= recs.size()) {
          Die("response for an unknown request id");
        }
        const size_t idx = static_cast<size_t>(resp.id - base_id);
        Rec& r = recs[idx];
        if (r.reply_ns >= 0) Die("duplicate response");
        r.reply_ns = now;
        r.status = static_cast<uint8_t>(resp.status);
        oracle_.Apply(r.op, r.key, r.value, resp);
        inflight_[static_cast<size_t>(r.key)] = 0;
        --*outstanding;
        --(*conn_outstanding)[r.conn];
        auto it = deferred_.find(r.key);
        if (it != deferred_.end()) {
          const size_t next = it->second.front();
          it->second.pop_front();
          if (it->second.empty()) deferred_.erase(it);
          send_rec(next, recs[next].conn);
        }
      }
      c.in.erase(0, off);
    }
    return n;
  }

  Oracle oracle_;
  std::vector<uint8_t> inflight_;
  std::unordered_map<Key, std::deque<size_t>> deferred_;
  std::vector<Conn> conns_;
  net::Client stats_;
  int epoll_fd_ = -1;
  int server_pid_ = 0;
  uint64_t next_id_ = 1;
  uint64_t probe_id_ = 0;
};

/// Latencies of answered requests (timed from the scheduled send) and the
/// send lag of those the generator did not defer; with a `filter`, only
/// requests scheduled in its kept windows.
void CollectLatencies(const PhaseResult& p, const WindowFilter* filter,
                      std::vector<int64_t>* lat, std::vector<int64_t>* lag) {
  for (const Rec& r : p.recs) {
    if (filter != nullptr && !filter->Kept(p.t0 + r.sched_ns)) continue;
    if (r.reply_ns < 0 ||
        r.status == static_cast<uint8_t>(net::Status::kRejected) ||
        r.status == static_cast<uint8_t>(net::Status::kShuttingDown)) {
      continue;
    }
    lat->push_back(r.reply_ns - r.sched_ns);
    if (!r.deferred && r.send_ns >= 0) lag->push_back(r.send_ns - r.sched_ns);
  }
}

void AppendPhaseJson(Json& j, const PhaseResult& p, const std::string& before,
                     uint64_t cpu_before) {
  std::vector<int64_t> lat, lag;
  CollectLatencies(p, nullptr, &lat, &lag);
  j.Open('{');
  j.Key("name").Str(p.spec.name);
  j.Key("kind").Str(p.spec.kind);
  j.Key("param").Num(p.spec.param);
  j.Key("seconds").Num(p.spec.seconds);
  j.Key("elapsed_s").Num(p.elapsed_s);
  j.Key("attempted").Int(p.recs.size());
  j.Key("completed").Int(p.completed);
  j.Key("rejected").Int(p.rejected);
  j.Key("unanswered").Int(p.unanswered);
  j.Key("answered_in_phase").Int(p.answered_in_phase);
  j.Key("deferred").Int(p.deferred);
  j.Key("mismatches").Int(p.mismatches_after - p.mismatches_before);
  j.Key("latency_ns").Q(Summarize(std::move(lat)));
  j.Key("send_lag_ns").Q(Summarize(std::move(lag)));
  j.Key("windows");
  WindowFilter(p.windows).AppendJson(j);
  j.Key("cpu_ticks").Int(p.cpu_ticks_after - cpu_before);
  j.Key("stats_before").Raw(before);
  j.Key("stats_after").Raw(p.stats_after);
  j.Close('}');
}

/// Phases named "<group>.<round>" pool into one group: all their
/// latencies, lags and closed-loop windows.
void AppendGroupJson(Json& j, const std::vector<const PhaseResult*>& phases) {
  std::vector<Window> windows;
  for (const PhaseResult* p : phases) {
    windows.insert(windows.end(), p->windows.begin(), p->windows.end());
  }
  const WindowFilter filter(std::move(windows));
  std::vector<int64_t> lat, lat_all, lag, lag_all;
  uint64_t attempted = 0, completed = 0, answered = 0;
  double seconds = 0;
  for (const PhaseResult* p : phases) {
    CollectLatencies(*p, &filter, &lat, &lag);
    CollectLatencies(*p, nullptr, &lat_all, &lag_all);
    attempted += p->recs.size();
    completed += p->completed;
    answered += p->answered_in_phase;
    seconds += p->spec.seconds;
  }
  j.Open('{');
  j.Key("phases").Int(phases.size());
  j.Key("seconds").Num(seconds);
  j.Key("attempted").Int(attempted);
  j.Key("completed").Int(completed);
  j.Key("answered_in_phase").Int(answered);
  // Clean windows only (the end-to-end p50s), and every request (the
  // per-layer tails and the stage ledger, which count every request too).
  j.Key("latency_ns").Q(Summarize(std::move(lat)));
  j.Key("latency_all_ns").Q(Summarize(std::move(lat_all)));
  j.Key("send_lag_ns").Q(Summarize(std::move(lag_all)));
  const std::vector<double> rates = filter.KeptRates();
  j.Key("window_rps").NumArray(rates);
  j.Key("peak_rps").Num(Median(rates));
  j.Key("windows");
  filter.AppendJson(j);
  j.Close('}');
}

void WriteRequestSpans(const std::string& path,
                       const std::vector<PhaseResult>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f,
               "# one line per request: the client.request span runs "
               "sched->reply, its child client.send sched->send and "
               "client.wait send->reply (ns since phase start)\n"
               "# phase\tid\top\tkey\tsched_ns\tsend_ns\treply_ns\tstatus\n");
  uint64_t id = 0;
  for (const PhaseResult& p : phases) {
    for (const Rec& r : p.recs) {
      std::fprintf(f, "%s\t%" PRIu64 "\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\t%" PRId64 "\t%u\n",
                   p.spec.name.c_str(), ++id, OpName(r.op), r.key, r.sched_ns,
                   r.send_ns, r.reply_ns, static_cast<unsigned>(r.status));
    }
  }
  std::fclose(f);
}

int CmdServe(int argc, char** argv) {
  std::string host = "127.0.0.1", mix_text = "95,3,2", phases, trace_path,
              state_in, state_out;
  int port = 0, conns = 4, server_pid = 0;
  uint64_t keys = 200000, seed = 1;
  double zipf = 0.0;
  cbtree::FlagSet flags;
  flags.Register("host", &host, "server address");
  flags.Register("port", &port, "server port");
  flags.Register("server_pid", &server_pid,
                 "server process, for its CPU time (0 = not read)");
  flags.Register("keys", &keys, "key space [1, keys]");
  flags.Register("seed", &seed, "seed of every schedule");
  flags.Register("conns", &conns, "connections, spread evenly over loops");
  flags.Register("mix", &mix_text, "search,insert,delete shares");
  flags.Register("zipf", &zipf, "key skew (0 = uniform)");
  flags.Register("phases", &phases,
                 "name:open|closed|verify:rate or window:seconds,...");
  flags.Register("trace", &trace_path, "write request spans here");
  flags.Register("state_in", &state_in, "start from this oracle file");
  flags.Register("state_out", &state_out, "save the oracle here");
  flags.Parse(argc, argv);
  const OpMix mix = ParseMix(mix_text);
  const KeyDist dist(keys, zipf);
  std::vector<PhaseSpec> specs;
  for (const std::string& s : Split(phases, ',')) {
    auto f = Split(s, ':');
    if (f.size() != 4) Die("phase spec name:kind:param:seconds, got " + s);
    specs.push_back(PhaseSpec{f[0], f[1], std::stod(f[2]), std::stod(f[3])});
  }
  LoadClient client(host, port, conns, keys, server_pid);
  if (!state_in.empty()) client.oracle().Load(state_in);

  std::vector<PhaseResult> results;
  std::string before = client.QuiescentStats();
  uint64_t cpu_before = client.CpuTicks();
  Json j;
  j.Open('{');
  j.Key("phases").Open('[');
  uint64_t phase_index = 0;
  for (const PhaseSpec& spec : specs) {
    std::vector<Key> verify_keys;
    if (spec.kind == "verify") {
      const Oracle& o = client.oracle();
      for (size_t k = 1; k < o.state.size(); ++k) {
        if (o.state[k] != Oracle::kUnknown) {
          verify_keys.push_back(static_cast<Key>(k));
        }
      }
    }
    PhaseResult r =
        client.Run(spec, Mix64(seed * 1315423911ull + ++phase_index), dist,
                   mix, verify_keys);
    r.stats_after = client.QuiescentStats();
    r.cpu_ticks_after = client.CpuTicks();
    AppendPhaseJson(j, r, before, cpu_before);
    std::fprintf(stderr,
                 "perfgen: phase %s: %zu attempted, %" PRIu64
                 " completed in %.3fs\n",
                 spec.name.c_str(), r.recs.size(), r.completed, r.elapsed_s);
    before = r.stats_after;
    cpu_before = r.cpu_ticks_after;
    results.push_back(std::move(r));
  }
  j.Close(']');
  std::map<std::string, std::vector<const PhaseResult*>> groups;
  for (const PhaseResult& r : results) {
    groups[r.spec.name.substr(0, r.spec.name.find('.'))].push_back(&r);
  }
  j.Key("groups").Open('{');
  for (const auto& [name, phases] : groups) {
    j.Key(name.c_str());
    AppendGroupJson(j, phases);
  }
  j.Close('}');
  j.Key("oracle_known").Int(client.oracle().Known());
  j.Key("mismatches").Int(client.oracle().mismatches);
  j.Key("clk_tck").Int(static_cast<uint64_t>(sysconf(_SC_CLK_TCK)));
  j.Close('}');
  if (!state_out.empty()) client.oracle().Save(state_out);
  if (!trace_path.empty()) WriteRequestSpans(trace_path, results);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// In-process trees.

std::optional<cbtree::Algorithm> ParseProtocol(const std::string& name) {
  if (name == "naive") return cbtree::Algorithm::kNaiveLockCoupling;
  if (name == "optimistic") return cbtree::Algorithm::kOptimisticDescent;
  if (name == "link") return cbtree::Algorithm::kLinkType;
  if (name == "two-phase") return cbtree::Algorithm::kTwoPhaseLocking;
  if (name == "olc") return cbtree::Algorithm::kOlc;
  return std::nullopt;
}

std::vector<int> AllowedCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cores;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cores.push_back(c);
    }
  }
  return cores;
}

void PinSelf(const std::vector<int>& cores, int index) {
  if (cores.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cores[static_cast<size_t>(index) % cores.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Keys are owned for writing in blocks of 64, round-robin over threads,
/// so each thread's model cells sit on their own cache lines.
constexpr uint64_t kOwnBlock = 64;

int OwnerOf(Key key, int threads) {
  return static_cast<int>(((static_cast<uint64_t>(key) - 1) / kOwnBlock) %
                          static_cast<uint64_t>(threads));
}

Key OwnKey(Key key, int thread, int threads, uint64_t n) {
  const uint64_t k = static_cast<uint64_t>(key) - 1;
  uint64_t block = k / kOwnBlock;
  const uint64_t t = static_cast<uint64_t>(threads);
  block = block - block % t + static_cast<uint64_t>(thread);
  uint64_t own = block * kOwnBlock + k % kOwnBlock;
  while (own >= n) own -= t * kOwnBlock;
  return static_cast<Key>(own + 1);
}

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  uint8_t op;
  uint8_t thread;
};

struct alignas(64) ThreadSlot {
  std::atomic<uint64_t> ops{0};
  uint64_t mismatches = 0;
  std::vector<Span> samples;
};

struct TreeModel {
  std::vector<uint8_t> present;
  std::vector<Value> value;
};

struct RunStats {
  uint64_t ops = 0;
  double seconds = 0;
  std::vector<Window> windows;  ///< 50 ms, with throughput and steal
  uint64_t mismatches = 0;
  std::vector<Span> samples;    ///< every 64th call, steady-clock ns
  uint64_t epoch_pending_max = 0;

  void Append(const RunStats& o) {
    ops += o.ops;
    seconds += o.seconds;
    windows.insert(windows.end(), o.windows.begin(), o.windows.end());
    mismatches += o.mismatches;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    epoch_pending_max = std::max(epoch_pending_max, o.epoch_pending_max);
  }
  /// Median ops/s over the clean windows.
  double OpsPerSecond() const {
    return Median(WindowFilter(windows).KeptRates());
  }
  /// Sampled-call latencies of `op` (all ops when null) in clean windows.
  Quantiles Latency(const Op* op) const {
    const WindowFilter filter(windows);
    std::vector<int64_t> v;
    for (const Span& s : samples) {
      if ((op == nullptr || static_cast<Op>(s.op) == *op) &&
          filter.Kept(s.start_ns)) {
        v.push_back(s.end_ns - s.start_ns);
      }
    }
    return Summarize(std::move(v));
  }
};

/// Runs `threads` workers on `tree` for `seconds`. With `timed`, every 64th
/// call is timed and kept as a sample span.
RunStats RunTree(cbtree::ConcurrentBTree* tree, TreeModel* model,
                 const KeyDist& dist, OpMix mix, int threads, double seconds,
                 uint64_t seed, bool timed, const std::vector<int>& cores) {
  std::vector<std::unique_ptr<ThreadSlot>> slots;
  for (int t = 0; t < threads; ++t) {
    slots.push_back(std::make_unique<ThreadSlot>());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  const uint64_t n = dist.size();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PinSelf(cores, t);
      ThreadSlot& slot = *slots[static_cast<size_t>(t)];
      Rng rng(Mix64(seed ^
                    (static_cast<uint64_t>(t) + 1) * 0x51afd7ed558ccd1dull));
      uint64_t ops = 0;
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i) {
          const Op op = mix.Pick(rng);
          Key key = dist.Draw(rng);
          if (op != Op::kSearch) key = OwnKey(key, t, threads, n);
          const size_t k = static_cast<size_t>(key);
          const bool own = OwnerOf(key, threads) == t;
          const bool sample = timed && (ops & 63) == 0;
          const int64_t start = sample ? NowNs() : 0;
          switch (op) {
            case Op::kSearch: {
              const std::optional<Value> got = tree->Search(key);
              if (own && (got.has_value() != (model->present[k] != 0) ||
                          (got && *got != model->value[k]))) {
                ++slot.mismatches;
              }
              break;
            }
            case Op::kInsert: {
              const Value v = static_cast<Value>(rng.Next() >> 2);
              const bool fresh = tree->Insert(key, v);
              if (fresh != (model->present[k] == 0)) ++slot.mismatches;
              model->present[k] = 1;
              model->value[k] = v;
              break;
            }
            case Op::kDelete: {
              const bool removed = tree->Delete(key);
              if (removed != (model->present[k] != 0)) ++slot.mismatches;
              model->present[k] = 0;
              break;
            }
          }
          if (sample) {
            slot.samples.push_back(Span{start, NowNs(),
                                        static_cast<uint8_t>(op),
                                        static_cast<uint8_t>(t)});
          }
          ++ops;
        }
        slot.ops.store(ops, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();

  auto* olc = dynamic_cast<cbtree::OlcTree*>(tree);
  RunStats out;
  auto total_ops = [&] {
    uint64_t s = 0;
    for (auto& slot : slots) s += slot->ops.load(std::memory_order_relaxed);
    return s;
  };
  const int64_t tick_ns = 50'000'000;
  const int64_t start = NowNs();
  uint64_t prev_ops = total_ops();
  int64_t prev_t = start;
  CpuTimes prev_cpu = ReadCpuTimes();
  while (NowNs() - start < static_cast<int64_t>(seconds * 1e9)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<int64_t>(tick_ns, static_cast<int64_t>(seconds * 1e9) -
                                       (NowNs() - start))));
    const int64_t now = NowNs();
    const uint64_t cur = total_ops();
    const CpuTimes cpu = ReadCpuTimes();
    if (now - prev_t >= tick_ns / 2) {
      out.windows.push_back(
          Window{prev_t, now, StealFrac(prev_cpu, cpu),
                 static_cast<double>(cur - prev_ops) /
                     (static_cast<double>(now - prev_t) * 1e-9)});
    }
    prev_ops = cur;
    prev_t = now;
    prev_cpu = cpu;
    if (olc != nullptr) {
      out.epoch_pending_max =
          std::max(out.epoch_pending_max, olc->epoch_stats().pending);
    }
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  out.ops = total_ops();
  for (auto& slot : slots) {
    out.mismatches += slot->mismatches;
    out.samples.insert(out.samples.end(), slot->samples.begin(),
                       slot->samples.end());
  }
  return out;
}

/// Parallel final check: every key's presence and value against the model.
uint64_t VerifyAll(const cbtree::ConcurrentBTree& tree, const TreeModel& model,
                   int threads) {
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> workers;
  const size_t n = model.present.size();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t local = 0;
      for (size_t k = 1 + static_cast<size_t>(t); k < n;
           k += static_cast<size_t>(threads)) {
        const std::optional<Value> got = tree.Search(static_cast<Key>(k));
        if (got.has_value() != (model.present[k] != 0) ||
            (got && *got != model.value[k])) {
          ++local;
        }
      }
      bad.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  return bad.load();
}

void AppendLatchJson(Json& j, const cbtree::CTreeStats& before,
                     const cbtree::CTreeStats& after) {
  // Per level: acquisitions, contended, and contended wait, as deltas.
  std::map<int, const cbtree::LatchLevelStats*> prev;
  for (const auto& l : before.latch_levels) prev[l.level] = &l;
  j.Open('[');
  for (const auto& l : after.latch_levels) {
    const cbtree::LatchLevelStats* p =
        prev.count(l.level) ? prev[l.level] : nullptr;
    auto d = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
    const uint64_t acq =
        d(l.shared.acquisitions + l.exclusive.acquisitions,
          p ? p->shared.acquisitions + p->exclusive.acquisitions : 0);
    const uint64_t cont =
        d(l.shared.contended + l.exclusive.contended,
          p ? p->shared.contended + p->exclusive.contended : 0);
    const uint64_t wait =
        d(l.shared.wait.total_ns + l.exclusive.wait.total_ns,
          p ? p->shared.wait.total_ns + p->exclusive.wait.total_ns : 0);
    j.Open('{');
    j.Key("level").Int(static_cast<uint64_t>(l.level));
    j.Key("acquisitions").Int(acq);
    j.Key("contended").Int(cont);
    j.Key("wait_ns").Int(wait);
    j.Close('}');
  }
  j.Close(']');
}

/// One protocol's live tree, its model, and what its slices measured.
struct TreeUnderTest {
  std::string name;
  std::unique_ptr<cbtree::ConcurrentBTree> tree;
  TreeModel model;
  double build_s = 0;
  cbtree::CTreeStats stats_before;
  cbtree::EpochStats epoch_before;
  RunStats loaded, light, untraced;
};

/// Node capacity of every in-process tree: `cbtree serve`'s default.
constexpr int kNodeSize = 13;
/// Seed of the preloaded key set and its insertion order (see CmdTree).
constexpr uint64_t kPreloadSeed = 1;

int CmdTree(int argc, char** argv) {
  std::string protocol_list = "naive,optimistic,link,two-phase,olc";
  std::string mix_text = "50,30,20", light_proto, trace_path;
  int threads = 4, rounds = 1;
  uint64_t keys = 2000000, seed = 1;
  double zipf = 0.99, seconds = 1.0, light_seconds = 0.0;
  cbtree::FlagSet flags;
  flags.Register("protocols", &protocol_list, "trees to run, comma-separated");
  flags.Register("threads", &threads, "worker threads per slice");
  flags.Register("keys", &keys, "key space [1, keys], half preloaded");
  flags.Register("mix", &mix_text, "search,insert,delete shares");
  flags.Register("zipf", &zipf, "key skew (0 = uniform)");
  flags.Register("seconds_each", &seconds, "measured seconds per protocol");
  flags.Register("rounds", &rounds, "interleaved rounds");
  flags.Register("light_protocol", &light_proto,
                 "protocol that also runs single-thread slices");
  flags.Register("light_seconds", &light_seconds,
                 "seconds of single-thread slices in all");
  flags.Register("seed", &seed, "seed of every operation stream");
  flags.Register("trace", &trace_path,
                 "write sampled-call spans here (and run untraced "
                 "reference slices of the light protocol)");
  flags.Parse(argc, argv);
  const auto protocols = Split(protocol_list, ',');
  const OpMix mix = ParseMix(mix_text);
  const KeyDist dist(keys, zipf);
  rounds = std::max(1, rounds);
  const bool tracing = !trace_path.empty();
  const std::vector<int> cores = AllowedCores();

  // Preload: every key of [1, keys] is present with probability 1/2,
  // inserted in a fixed random order. It is the same for
  // every protocol and every --seed (the seed drives the operations), so
  // every run starts from the same tree shape: how full the few nodes
  // under the root are decides how long latch-coupling writers hold the
  // root, and a seed-dependent shape moved naive throughput by ~15%.
  TreeModel initial;
  initial.present.assign(keys + 1, 0);
  initial.value.assign(keys + 1, 0);
  std::vector<Key> order;
  for (uint64_t k = 1; k <= keys; ++k) {
    if (Mix64(kPreloadSeed * 0x9e3779b97f4a7c15ull ^ k) & 1) {
      initial.present[k] = 1;
      initial.value[k] = static_cast<Value>(Mix64(k ^ kPreloadSeed) >> 2);
      order.push_back(static_cast<Key>(k));
    }
  }
  Rng shuffle(kPreloadSeed ^ 0x5bd1e995ull);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.Below(i)]);
  }

  std::vector<TreeUnderTest> trees;
  for (const std::string& name : protocols) {
    const std::optional<cbtree::Algorithm> alg = ParseProtocol(name);
    if (!alg) Die("unknown protocol " + name);
    TreeUnderTest t;
    t.name = name;
    t.model = initial;
    t.tree = cbtree::MakeConcurrentBTree(*alg, kNodeSize);
    const int64_t build_start = NowNs();
    // One inserting thread: a concurrent build would make the split points,
    // and so the tree's shape, depend on thread interleaving.
    for (Key key : order) {
      t.tree->Insert(key, initial.value[static_cast<size_t>(key)]);
    }
    t.build_s = static_cast<double>(NowNs() - build_start) * 1e-9;
    if (t.tree->size() != order.size()) {
      Die("preload size mismatch for " + name);
    }
    t.stats_before = t.tree->stats();
    if (auto* olc = dynamic_cast<cbtree::OlcTree*>(t.tree.get())) {
      t.epoch_before = olc->epoch_stats();
    }
    std::fprintf(stderr, "perfgen: %s: built in %.3fs\n", name.c_str(),
                 t.build_s);
    trees.push_back(std::move(t));
  }

  // Interleaved rounds: every protocol runs one slice per round, so a
  // disturbance of the host lands on all of them alike. When tracing, the
  // light protocol also runs an untraced slice per round, with no sampled
  // timing at all (the reference for the tracing overhead), alternating
  // which of the two goes first.
  const int64_t origin = NowNs();
  const double slice = seconds / rounds;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < trees.size(); ++i) {
      TreeUnderTest& t = trees[i];
      const uint64_t run_seed =
          Mix64(seed ^ ((i + 1) * 0x94d049bb133111ebull) ^
                (static_cast<uint64_t>(r) << 48));
      const bool reference = tracing && t.name == light_proto;
      if (reference && r % 2 == 1) {
        t.untraced.Append(RunTree(t.tree.get(), &t.model, dist, mix, threads,
                                  slice, run_seed ^ 2, false, cores));
      }
      t.loaded.Append(RunTree(t.tree.get(), &t.model, dist, mix, threads,
                              slice, run_seed, true, cores));
      if (reference && r % 2 == 0) {
        t.untraced.Append(RunTree(t.tree.get(), &t.model, dist, mix, threads,
                                  slice, run_seed ^ 2, false, cores));
      }
      if (t.name == light_proto && light_seconds > 0) {
        t.light.Append(RunTree(t.tree.get(), &t.model, dist, mix, 1,
                               light_seconds / rounds, run_seed ^ 1, true,
                               cores));
      }
    }
  }

  std::FILE* spans = nullptr;
  if (tracing) {
    spans = std::fopen(trace_path.c_str(), "w");
    if (spans == nullptr) Die("cannot write " + trace_path);
    std::fprintf(spans,
                 "# one line per sampled tree call (every 64th): span "
                 "tree.<op> (ns since the first round began)\n"
                 "# protocol\tthread\top\tstart_ns\tend_ns\n");
  }
  Json j;
  j.Open('{');
  j.Key("protocols").Open('[');
  for (TreeUnderTest& t : trees) {
    auto* olc = dynamic_cast<cbtree::OlcTree*>(t.tree.get());
    const cbtree::CTreeStats s1 = t.tree->stats();
    const cbtree::EpochStats e1 =
        olc ? olc->epoch_stats() : cbtree::EpochStats{};
    t.tree->CheckInvariants();  // aborts on a violation
    const size_t counted = t.tree->CountKeys();
    uint64_t model_keys = 0;
    for (size_t k = 1; k < t.model.present.size(); ++k) {
      model_keys += t.model.present[k];
    }
    const uint64_t bad_keys = VerifyAll(*t.tree, t.model, threads);
    const uint64_t op_mismatches =
        t.loaded.mismatches + t.light.mismatches + t.untraced.mismatches;
    const bool count_ok =
        counted == t.tree->size() && model_keys == t.tree->size();
    const bool ok = count_ok && bad_keys == 0 && op_mismatches == 0;
    if (!ok) {
      std::fprintf(stderr,
                   "perfgen: %s failed checks: CountKeys %zu size %zu model %"
                   PRIu64 " bad keys %" PRIu64 " op mismatches %" PRIu64 "\n",
                   t.name.c_str(), counted, t.tree->size(), model_keys,
                   bad_keys, op_mismatches);
    }
    const uint64_t ops = t.loaded.ops + t.untraced.ops;
    j.Open('{');
    j.Key("protocol").Str(t.name);
    j.Key("build_s").Num(t.build_s);
    j.Key("preload_keys").Int(order.size());
    j.Key("ops").Int(t.loaded.ops);
    j.Key("seconds").Num(t.loaded.seconds);
    const std::vector<double> rates =
        WindowFilter(t.loaded.windows).KeptRates();
    j.Key("window_rps").NumArray(rates);
    j.Key("ops_s").Num(Median(rates));
    j.Key("windows");
    WindowFilter(t.loaded.windows).AppendJson(j);
    j.Key("latency_ns").Q(t.loaded.Latency(nullptr));
    for (Op op : {Op::kSearch, Op::kInsert, Op::kDelete}) {
      j.Key((std::string(OpName(op)) + "_ns").c_str()).Q(t.loaded.Latency(&op));
    }
    j.Key("light_ops").Int(t.light.ops);
    j.Key("light_latency_ns").Q(t.light.Latency(nullptr));
    j.Key("untraced_ops").Int(t.untraced.ops);
    j.Key("untraced_ops_s").Num(t.untraced.OpsPerSecond());
    // Structure and latch counters cover every slice (loaded, untraced).
    j.Key("counted_ops").Int(ops);
    j.Key("splits").Int(s1.splits - t.stats_before.splits);
    j.Key("restarts").Int(s1.restarts - t.stats_before.restarts);
    j.Key("link_crossings").Int(s1.link_crossings -
                                t.stats_before.link_crossings);
    j.Key("latch_levels");
    AppendLatchJson(j, t.stats_before, s1);
    j.Key("epoch_retired").Int(e1.retired - t.epoch_before.retired);
    j.Key("epoch_pending_max").Int(t.loaded.epoch_pending_max);
    j.Key("mismatches").Int(op_mismatches + bad_keys);
    j.Key("count_ok").Bool(count_ok);
    j.Key("ok").Bool(ok);
    j.Close('}');
    if (spans != nullptr) {
      for (const Span& s : t.loaded.samples) {
        std::fprintf(spans, "%s\t%u\t%s\t%" PRId64 "\t%" PRId64 "\n",
                     t.name.c_str(), static_cast<unsigned>(s.thread),
                     OpName(static_cast<Op>(s.op)), s.start_ns - origin,
                     s.end_ns - origin);
      }
    }
    std::fprintf(stderr, "perfgen: %s: %.0f ops/s\n", t.name.c_str(),
                 Median(rates));
  }
  j.Close(']');
  j.Close('}');
  if (spans != nullptr) std::fclose(spans);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------

int CmdSelftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // Quantiles over a known sample: 1..1000 in shuffled order.
  std::vector<int64_t> sample;
  for (int64_t i = 1; i <= 1000; ++i) sample.push_back(i);
  Rng rng(7);
  for (size_t i = sample.size(); i > 1; --i) {
    std::swap(sample[i - 1], sample[rng.Below(i)]);
  }
  const Quantiles q = Summarize(sample);
  expect(q.n == 1000, "sample count");
  expect(q.p50 == 500, "p50 of 1..1000 is 500");
  expect(q.p99 == 990, "p99 of 1..1000 is 990");
  expect(q.p999 == 999, "p99.9 of 1..1000 is 999");
  expect(q.max == 1000, "max of 1..1000 is 1000");
  expect(q.mean == 500.5, "mean of 1..1000 is 500.5");
  const Quantiles one = Summarize({42});
  expect(one.p50 == 42 && one.p999 == 42, "single-sample quantiles");
  expect(Summarize({}).n == 0, "empty sample");
  expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");

  // The schedule is a pure function of the seed.
  const KeyDist zipf(200000, 0.8);
  const OpMix mix{0.95, 0.03, 0.02};
  const auto a = PlanOpenLoop(11, 25000, 0.2, zipf, mix);
  const auto b = PlanOpenLoop(11, 25000, 0.2, zipf, mix);
  const auto c = PlanOpenLoop(12, 25000, 0.2, zipf, mix);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_ns == b[i].at_ns && a[i].key == b[i].key &&
           a[i].op == b[i].op && a[i].value == b[i].value;
  }
  expect(same, "same seed gives the same schedule");
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_ns != c[i].at_ns || a[i].key != c[i].key;
  }
  expect(differs, "another seed gives another schedule");
  // Poisson arrivals at the offered rate (5000 expected, sd ~71).
  expect(a.size() > 4600 && a.size() < 5400, "arrival count near rate*time");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i].at_ns >= a[i - 1].at_ns;
  expect(sorted, "arrival times ascend");
  // Keys stay in range; the hottest zipf rank maps to one fixed key.
  bool in_range = true;
  for (const Planned& p : a) in_range &= p.key >= 1 && p.key <= 200000;
  expect(in_range, "keys within [1, n]");
  // Write ownership: OwnKey lands in the thread's own block and range.
  bool owned = true;
  for (Key k : {Key{1}, Key{64}, Key{65}, Key{1999999}, Key{2000000}}) {
    for (int t = 0; t < 4; ++t) {
      const Key o = OwnKey(k, t, 4, 2000000);
      owned &= OwnerOf(o, 4) == t && o >= 1 && o <= 2000000;
    }
  }
  expect(owned, "OwnKey maps into the thread's own keys");
  std::printf("{\"selftest\":%s,\"failures\":%d}\n",
              failures == 0 ? "true" : "false", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfgen serve|tree|selftest|provenance "
                         "[--flag value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "selftest") return perf::CmdSelftest();
  if (cmd == "provenance") {
    std::printf("%s\n", cbtree::BuildProvenanceLine().c_str());
    return 0;
  }
  if (cmd == "serve") return perf::CmdServe(argc, argv);
  if (cmd == "tree") return perf::CmdTree(argc, argv);
  std::fprintf(stderr, "perfgen: unknown command %s\n", cmd.c_str());
  return 2;
}
