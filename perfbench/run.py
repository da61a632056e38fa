#!/usr/bin/env python3
"""The cbtree benchmark: builds cbtree and perfgen (Release), runs one
workload, checks every answer, and prints its metrics.

  python3 perfbench/run.py --workload serve_write_wal --seed 1 --seconds 40 --trace 0

Run from the repository root. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Lines before it
are a readable report with sample counts. A full record of each run
(provenance, phases, every metric) goes to
.bench_build/perfbench/results/. See perfbench/README.md for the
workloads, the metrics and the layer each one belongs to.

Exit codes: 0 ok; 1 wrong answer or broken accounting (the JSON line is
still printed, with "correct": false); 2 build, setup or usage failure;
3 the binaries' build config differs from --build-config.
"""

import argparse
import hashlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CBTREE_BUILD = os.path.join(BUILD, "cbtree")
PERFGEN_BUILD = os.path.join(BUILD, "perfgen")
WORK = os.path.join(BUILD, "perfbench")
CBTREE = os.path.join(CBTREE_BUILD, "tools", "cbtree")
PERFGEN = os.path.join(PERFGEN_BUILD, "perfgen")

PROTOCOLS = ["naive", "optimistic", "link", "two-phase", "olc"]
STAGES = ["admit", "queue", "batch", "tree", "buffer", "flush"]
SERVE_ITEMS = 100000
SERVE_KEYS = 2 * SERVE_ITEMS  # `cbtree serve` preloads over [1, 2*items]
# The admission budget (--queue, default 1024 in flight) is lifted far above
# anything the phases offer: at 60k/s a 17 ms host stall filled the default
# budget and the server rejected a few hundred requests in some runs and
# none in others. A stall now shows as latency, as in the paper's open
# model, and a run on which any request is rejected still counts it failed.
SERVER_QUEUE = 1 << 20
SERVER_FLAGS = ["--protocol=olc", "--shards=2", "--loops=2", "--workers=2",
                "--items=%d" % SERVE_ITEMS, "--queue=%d" % SERVER_QUEUE]
# Measured phases run in interleaved rounds (light, loaded, peak; or one
# slice per protocol), so a host disturbance lands on every metric alike.
# Untraced, every serving round runs on a server of its own, and each
# end-to-end serving metric is the median over the rounds: two servers
# started seconds apart differed by up to 40% in p50 while the rounds of
# one server agreed within ~5%, so one server per run made the run's
# server the largest source of spread. The round servers' start times are
# the setup_s samples.
ROUNDS = 5
# The server's preload (its --seed) is the same every run, so every run
# serves the same initial trees; --seed drives the requests.
SERVER_PRELOAD_SEED = 1
WINDOW_PER_CONN = 16  # peak phase: 4 connections x 16 outstanding
CONNECTIONS = 4

WORKLOADS = {
    # Request time is almost all in net; the tree is ~1% of it, WAL idle.
    # Runnable, but not in BENCHMARK.json: its CPU-bound figures follow the
    # shared host's load beyond the benchmark's largest bound.
    "serve_read": {"kind": "serve", "mix": "95,3,2", "zipf": 0.8,
                   "light": 25000, "loaded": 60000, "wal": False},
    # Request time is dominated by the durable wait (wal) on the same path.
    # Loaded stays at ~30% of the usual ~7k/s capacity: while a neighbour
    # loads the host's disk, capacity fell to ~3k/s and 4k/s overloaded it.
    "serve_write_wal": {"kind": "serve", "mix": "30,50,20", "zipf": 0.0,
                        "light": 1000, "loaded": 2000, "wal": True},
    # In-process latch contention at root and leaves; no net, no WAL.
    "tree_contended": {"kind": "tree", "mix": "50,30,20", "zipf": 0.99,
                       "keys": 2000000},
}

# Phase validity: the generator must not run late, and the server must
# answer (almost) everything offered within the phase.
MAX_MEAN_SEND_LAG_US = 50.0
MIN_ANSWERED_IN_PHASE = 0.97


class BenchError(Exception):
    """Setup or build failure: exit 2 without a result line."""


class ConfigRefused(Exception):
    """A binary's build config differs from --build-config: exit 3."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes: every child dies with us (PR_SET_PDEATHSIG) and is reaped.

LIVE = []


def _child_setup(cores):
    def setup():
        try:
            import ctypes
            ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
        except OSError:
            pass
        if cores:
            os.sched_setaffinity(0, cores)
    return setup


def spawn(cmd, cores, **kw):
    proc = subprocess.Popen(cmd, preexec_fn=_child_setup(cores), cwd=ROOT,
                            **kw)
    LIVE.append(proc)
    return proc


def reap_all():
    for proc in LIVE:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
    LIVE.clear()


def run_checked(cmd, cores, timeout, what):
    proc = spawn(cmd, cores, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s timed out" % what)
    finally:
        LIVE.remove(proc)
    sys.stderr.write(err)
    return proc.returncode, out


# ---------------------------------------------------------------------------
# Build and provenance.

def parse_config(text):
    config = dict(item.split("=", 1) for item in text.split())
    if "build" not in config:
        raise BenchError("--build-config needs build=<CMAKE_BUILD_TYPE>")
    return config


def build(config):
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    onoff = lambda key: "ON" if config.get(key, "0") == "1" else "OFF"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", ROOT, "-B", CBTREE_BUILD,
         "-DCMAKE_BUILD_TYPE=" + config["build"],
         "-DCBTREE_BUILD_TESTS=OFF", "-DCBTREE_BUILD_BENCHMARKS=OFF",
         "-DCBTREE_BUILD_EXAMPLES=OFF",
         "-DCBTREE_OBS=" + onoff("obs"),
         "-DCBTREE_LATCH_CHECK=" + onoff("latch_check")],
        ["cmake", "--build", CBTREE_BUILD, "-j", jobs, "--target",
         "cbtree_cli"],
        ["cmake", "-S", HERE, "-B", PERFGEN_BUILD,
         "-DCMAKE_BUILD_TYPE=" + config["build"],
         "-DCBTREE_BUILD_DIR=" + CBTREE_BUILD,
         "-DCBTREE_LATCH_CHECK_ENABLED=" + config.get("latch_check", "0")],
        ["cmake", "--build", PERFGEN_BUILD, "-j", jobs],
    ]
    with open(logfile, "w") as out:
        for step in steps:
            rc = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                 cwd=ROOT, timeout=850)
            if rc != 0:
                with open(logfile) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build step failed: %s\n%s"
                                 % (" ".join(step), tail))


def check_provenance(line, config, what):
    """`line` is a BuildProvenanceLine(): "sha=... build=... obs=..."."""
    fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
    for key, want in config.items():
        if key not in fields and key != "build":
            continue  # the binary no longer reports this switch
        if fields.get(key) != want:
            raise ConfigRefused("%s reports %s=%s, the benchmark needs %s=%s"
                                % (what, key, fields.get(key), key, want))
    return fields


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            parts = line.split()
            mount = parts[4]
            fs = parts[parts.index("-") + 1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, fs
    return fstype


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


# ---------------------------------------------------------------------------
# The server.

class Server:
    def __init__(self, cores, extra, config):
        self.t_spawn = time.monotonic()
        self.proc = spawn([CBTREE, "serve", "--port=0",
                           "--seed=%d" % SERVER_PRELOAD_SEED]
                          + SERVER_FLAGS + extra, cores,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        self.port = None
        self.banner = []
        self.provenance = None
        pending = b""
        deadline = time.monotonic() + 60
        while self.port is None:
            if b"\n" not in pending:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([self.proc.stdout], [], [],
                                                  left)[0]:
                    raise BenchError("server did not start")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError("server exited at start: %s"
                                     % self.banner)
                pending += chunk
                continue
            raw, pending = pending.split(b"\n", 1)
            line = raw.decode()
            self.banner.append(line)
            if line.startswith("build "):
                self.provenance = check_provenance(line[6:], config,
                                                   "cbtree serve")
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", self.port), timeout=10):
            pass
        self.setup_s = time.monotonic() - self.t_spawn

    def stop(self):
        """Drains the server; returns its accounting. Raises on a bad exit."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out = self.proc.communicate(timeout=60)[0].decode()
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("server did not drain")
        finally:
            LIVE.remove(self.proc)
        if self.proc.returncode != 0:
            raise BenchError("server exited %d:\n%s"
                             % (self.proc.returncode, out[-2000:]))
        acct = None
        for line in out.splitlines():
            words = line.split()
            if words[:1] == ["requests"] and "received:" in words:
                acct = {"received": int(words[1]), "completed": int(words[3]),
                        "rejected": int(words[5]),
                        "shutdown_rejected": int(words[7])}
        if acct is None:
            raise BenchError("no accounting in the server's drain report")
        return acct


def perfgen(args, cores, timeout=150):
    rc, out = run_checked([PERFGEN] + args, cores, timeout, "perfgen")
    if rc != 0:
        raise BenchError("perfgen %s exited %d" % (args[0], rc))
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# kStats deltas.

def snap(stats):
    return stats["snapshot"]


def counter_delta(after, before, name):
    return snap(after)["counters"].get(name, 0) - \
        snap(before)["counters"].get(name, 0)


def counter_sum_delta(after, before, prefix, suffix):
    total = 0
    for name, value in snap(after)["counters"].items():
        if name.startswith(prefix) and name.endswith(suffix):
            total += value - snap(before)["counters"].get(name, 0)
    return total


def timer_delta(after, before, prefix):
    """(count, total_ns) summed over timers named prefix*, as deltas."""
    count = total = 0
    for name, t in snap(after)["timers"].items():
        if name.startswith(prefix):
            b = snap(before)["timers"].get(name, {"count": 0, "total_ns": 0})
            count += t["count"] - b["count"]
            total += t["total_ns"] - b["total_ns"]
    return count, total


def ratio(a, b):
    return a / b if b else 0.0


def phase_group(out, group):
    """The rounds of one phase group ("light" -> light.1, light.2, ...)."""
    return [p for p in out["phases"] if p["name"].split(".")[0] == group]


def group_counter(phases, name):
    return sum(counter_delta(p["stats_after"], p["stats_before"], name)
               for p in phases)


def group_counter_sum(phases, prefix, suffix):
    return sum(counter_sum_delta(p["stats_after"], p["stats_before"], prefix,
                                 suffix) for p in phases)


def group_timer(phases, prefix):
    count = total = 0
    for p in phases:
        c, t = timer_delta(p["stats_after"], p["stats_before"], prefix)
        count += c
        total += t
    return count, total


# ---------------------------------------------------------------------------
# Workloads.

class Run:
    def __init__(self, args, config):
        self.args = args
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}   # name -> (value, unit, samples)
        self.record = {"phases": {}}
        cores = sorted(os.sched_getaffinity(0))
        self.all_cores = cores
        if len(cores) >= 2:
            self.gen_cores, self.server_cores = cores[:1], cores[1:]
        else:
            self.gen_cores = self.server_cores = cores

    def metric(self, name, value, unit, samples):
        self.metrics[name] = (float(value), unit, samples)

    def problem(self, text):
        log("CHECK FAILED: " + text)
        self.problems.append(text)

    # -- serving ------------------------------------------------------------

    def start_server(self, extra):
        server = Server(self.server_cores, extra, self.config)
        self.record.setdefault("server_build", server.provenance)
        return server

    def round_phases(self, workload, r, with_light_loaded=True):
        """Round r's light, loaded and peak: 12% of --seconds."""
        s = self.args.seconds / ROUNDS
        phases = []
        if with_light_loaded:
            phases += ["light.%d:open:%d:%g" % (r, workload["light"],
                                                0.15 * s),
                       "loaded.%d:open:%d:%g" % (r, workload["loaded"],
                                                 0.15 * s)]
        phases.append("peak.%d:closed:%d:%g" % (r, WINDOW_PER_CONN, 0.3 * s))
        return phases

    def warm_phase(self, workload, name, share):
        return "%s:open:%d:%g" % (name, workload["loaded"],
                                  share * self.args.seconds)

    def serve_phases(self, workload, with_light_loaded=True):
        """Warm-up, then ROUNDS x (light, loaded, peak): 60% of --seconds."""
        phases = [self.warm_phase(workload, "warm", 0.05)]
        for r in range(1, ROUNDS + 1):
            phases += self.round_phases(workload, r, with_light_loaded)
        return phases

    def drive(self, server, workload, phases, extra=(), seed=None):
        out = perfgen(["serve", "--port", str(server.port),
                       "--server_pid", str(server.proc.pid),
                       "--seed", str(self.args.seed if seed is None
                                     else seed),
                       "--keys", str(SERVE_KEYS),
                       "--conns", str(CONNECTIONS),
                       "--mix", workload["mix"],
                       "--zipf", str(workload["zipf"]),
                       "--phases", ",".join(phases)] + list(extra),
                      self.gen_cores)
        for p in out["phases"]:
            self.attempted += p["attempted"]
            self.failed += p["rejected"] + p["unanswered"] + p["mismatches"]
            if p["mismatches"] or p["unanswered"]:
                self.problem("phase %s: %d oracle mismatches, %d unanswered"
                             % (p["name"], p["mismatches"], p["unanswered"]))
            self.check_phase_accounting(p)
        return out

    def check_phase_accounting(self, p):
        after, before = p["stats_after"], p["stats_before"]
        received = counter_delta(after, before, "srv.requests")
        if received != p["attempted"]:
            self.problem("phase %s: server received %d requests, generator "
                         "sent %d" % (p["name"], received, p["attempted"]))
        completed = counter_delta(after, before, "srv.completed")
        if completed != p["completed"]:
            self.problem("phase %s: server completed %d, generator got %d "
                         "answers" % (p["name"], completed, p["completed"]))
        count, total = timer_delta(after, before, "stage.total_ns.")
        stage_sum = sum(timer_delta(after, before, "stage.%s_ns." % st)[1]
                        for st in STAGES)
        if count and stage_sum != total:
            self.problem("phase %s: stage means sum to %.1f ns, stage.total "
                         "mean is %.1f ns" % (p["name"], stage_sum / count,
                                              total / count))

    def check_drain(self, acct, sent):
        if acct["received"] != acct["completed"] + acct["rejected"] + \
                acct["shutdown_rejected"]:
            self.problem("server accounting: %s" % acct)
        if acct["received"] != sent:
            self.problem("server received %d requests, generator sent %d"
                         % (acct["received"], sent))

    def serve_workload(self, name, workload):
        wal_extra = lambda d: (["--wal_dir=" + d, "--fsync=data",
                                "--group_commit_us=200", "--recovery=none"]
                               if workload["wal"] else [])
        trace = self.args.trace
        tag = "%s-%d" % (name, self.args.seed)
        state_file = os.path.join(WORK, tag + ".oracle")

        def fresh_dir(i):
            d = os.path.join(WORK, "wal-%s-%d" % (tag, i))
            subprocess.call(["rm", "-rf", d])
            return d

        if workload["wal"]:
            self.record["wal_filesystem"] = filesystem_of(WORK)

        verify = "verify%s:verify:%d:0"
        if not trace:
            # One server per round, each warmed, measured and read back.
            setups, outs = [], []
            for r in range(1, ROUNDS + 1):
                wal_dir = fresh_dir(r)
                server = self.start_server(wal_extra(wal_dir))
                setups.append(server.setup_s)
                phases = [self.warm_phase(workload, "warm.%d" % r,
                                          0.05 / ROUNDS)] + \
                    self.round_phases(workload, r) + \
                    [verify % (".%d" % r, WINDOW_PER_CONN)]
                out = self.drive(server, workload, phases,
                                 ["--state_out", state_file],
                                 seed=self.args.seed * 1000 + r)
                self.check_drain(server.stop(), sum(p["attempted"]
                                                    for p in out["phases"]))
                outs.append(out)
            self.metric("setup_s", statistics.median(setups), "s",
                        len(setups))
        else:
            # Untraced reference for the tracing overhead: the same peak on
            # a server without the stats ticker.
            wal_dir = fresh_dir(0)
            server = self.start_server(wal_extra(wal_dir))
            ref = self.drive(server, workload,
                             self.serve_phases(workload, False))
            self.check_drain(server.stop(), sum(p["attempted"]
                                                for p in ref["phases"]))
            untraced_peak = ref["groups"]["peak"]["peak_rps"]
            wal_dir = fresh_dir(1)
            server = self.start_server(
                wal_extra(wal_dir) +
                ["--stats_interval=0.25",
                 "--stats_file=" + os.path.join(WORK, name + ".stats.jsonl")])
            phases = self.serve_phases(workload) + \
                [verify % ("", WINDOW_PER_CONN)]
            out = self.drive(server, workload, phases,
                             ["--state_out", state_file, "--trace",
                              os.path.join(WORK, name + ".requests.tsv")])
            self.check_drain(server.stop(), sum(p["attempted"]
                                                for p in out["phases"]))
            outs = [out]

        replay_s = 0.0
        if workload["wal"]:
            # Restart on the last server's log and read back every key whose
            # state its round learned, acknowledged writes included.
            server = self.start_server(wal_extra(wal_dir))
            replay_s = server.setup_s
            replayed = [l for l in server.banner if "replayed" in l]
            self.record["replay"] = replayed
            check = self.drive(server, workload,
                               [verify % ("", WINDOW_PER_CONN)],
                               ["--state_in", state_file])
            self.check_drain(server.stop(), check["phases"][0]["attempted"])
        for i in range(ROUNDS + 1):
            subprocess.call(["rm", "-rf", fresh_dir(i)])
        subprocess.call(["rm", "-rf", state_file])

        self.record["phases"] = {
            p["name"]: {k: v for k, v in p.items()
                        if k not in ("stats_before", "stats_after")}
            for out in outs for p in out["phases"]}
        self.record["groups"] = [
            {g: {k: v for k, v in p.items() if k != "window_rps"}
             for g, p in out["groups"].items()} for out in outs]
        self.phase_validity([out["groups"] for out in outs])

        # The other 40%: the same mix in-process, every protocol.
        trees = self.tree_runs(workload["mix"], workload["zipf"], SERVE_KEYS,
                               0.08 * self.args.seconds, None, 0.0, name,
                               1 if trace else ROUNDS)
        if not trace:
            for p in ("light", "loaded"):
                lats = [out["groups"][p]["latency_ns"] for out in outs]
                self.metric("p50_us." + p,
                            statistics.median(l["p50"] for l in lats) / 1e3,
                            "us", sum(l["n"] for l in lats))
            peaks = [out["groups"]["peak"] for out in outs]
            self.metric("peak_rps",
                        statistics.median(g["peak_rps"] for g in peaks),
                        "1/s", sum(len(g["window_rps"]) for g in peaks))
            self.tree_throughput(trees)
        else:
            groups = out["groups"]
            self.net_layer(out)
            self.wal_layer(out, workload["wal"], replay_s)
            self.tree_layers(trees)
            self.metric("obs.trace_overhead_frac",
                        1.0 - groups["peak"]["peak_rps"] / untraced_peak,
                        "fraction", 2)

    def phase_validity(self, groups_list):
        """Marks each server's light and loaded groups valid or not."""
        invalid = 0
        for groups, rec in zip(groups_list, self.record["groups"]):
            for p in ("light", "loaded"):
                ph = groups[p]
                lag_us = ph["send_lag_ns"]["mean"] / 1e3
                answered = ratio(ph["answered_in_phase"], ph["attempted"])
                valid = lag_us <= MAX_MEAN_SEND_LAG_US and \
                    answered >= MIN_ANSWERED_IN_PHASE
                rec[p]["valid"] = valid
                if not valid:
                    invalid += 1
                    log("phase %s INVALID: mean send lag %.1f us, %.3f of "
                        "offered load answered within the phase"
                        % (p, lag_us, answered))
        self.record["invalid_phases"] = invalid
        if self.args.trace:
            self.metric("net.invalid_phases", invalid, "count", 2)

    def net_layer(self, out):
        for p in ("light", "loaded", "peak"):
            ph = out["groups"][p]
            rounds = phase_group(out, p)
            n_total, ns_total = group_timer(rounds, "stage.total_ns.")
            for st in STAGES:
                count, total = group_timer(rounds, "stage.%s_ns." % st)
                self.metric("net.stage.%s_us.%s" % (st, p),
                            ratio(total, count) / 1e3, "us", count)
            executed = group_counter_sum(rounds, "srv.shard", ".executed")
            batches = group_counter_sum(rounds, "srv.shard", ".batches")
            self.metric("net.batch_size." + p, ratio(executed, batches),
                        "requests", batches)
            self.metric("net.rejected_frac." + p,
                        ratio(group_counter(rounds, "srv.rejected"),
                              group_counter(rounds, "srv.requests")),
                        "fraction", ph["attempted"])
            ticks = sum(r["cpu_ticks"] for r in rounds)
            self.metric("net.server_cpu_us_per_op." + p,
                        ratio(ticks * 1e6 / out["clk_tck"], ph["completed"]),
                        "us", ph["completed"])
            lat = ph["latency_all_ns"]
            self.metric("net.outside_server_us." + p,
                        (lat["mean"] - ratio(ns_total, n_total)) / 1e3, "us",
                        lat["n"])
            if p != "peak":
                self.metric("net.client.send_lag_us." + p,
                            ph["send_lag_ns"]["mean"] / 1e3, "us",
                            ph["send_lag_ns"]["n"])
            self.metric("net.client.p99_us." + p, lat["p99"] / 1e3, "us",
                        lat["n"])
            self.metric("net.client.p999_us." + p, lat["p999"] / 1e3, "us",
                        lat["n"])

    def wal_layer(self, out, enabled, replay_s):
        # The serving window only: the first light round through the last
        # peak round. The preload (logged at start) and the warm-up are
        # before it, the read-back after it.
        after = phase_group(out, "peak")[-1]["stats_after"]
        before = phase_group(out, "light")[0]["stats_before"]
        appends = counter_delta(after, before, "srv.wal.appends")
        fsyncs = counter_delta(after, before, "srv.wal.fsyncs")
        g_count, g_total = timer_delta(after, before, "wal.group_size.")
        f_count, f_total = timer_delta(after, before, "wal.fsync_ns.")
        w_count, w_total = timer_delta(after, before, "wal.sync_wait_ns.")
        self.record["wal_window"] = {
            "appends": appends, "fsyncs": fsyncs,
            "appends_before_window":
                snap(before)["counters"].get("srv.wal.appends", 0)}
        self.metric("wal.appends_per_fsync", ratio(appends, fsyncs),
                    "appends", fsyncs)
        self.metric("wal.group_size", ratio(g_total, g_count), "appends",
                    g_count)
        self.metric("wal.fsync_us", ratio(f_total, f_count) / 1e3, "us",
                    f_count)
        self.metric("wal.sync_wait_us", ratio(w_total, w_count) / 1e3, "us",
                    w_count)
        self.metric("wal.bytes_per_write",
                    ratio(counter_delta(after, before, "srv.wal.bytes"),
                          appends), "bytes", appends)
        self.metric("wal.replay_s", replay_s, "s", 1 if enabled else 0)

    # -- in-process trees -----------------------------------------------------

    def tree_runs(self, mix, zipf, keys, seconds_each, light_protocol,
                  light_seconds, name, processes=1):
        """Runs the five trees; with `processes` > 1, that many perfgen
        processes share the rounds, and each protocol's ops_s is the median
        of theirs (a process's trees sit in its own memory, and the level
        of two processes run back to back differed by ~15%)."""
        runs = {}
        for i in range(processes):
            args = ["tree", "--protocols", ",".join(PROTOCOLS),
                    "--threads", "4", "--keys", str(keys), "--mix", mix,
                    "--zipf", str(zipf),
                    "--seconds_each", "%g" % (seconds_each / processes),
                    "--rounds", str(ROUNDS // processes),
                    "--seed", str(self.args.seed * 1000 + i)]
            if light_protocol:
                args += ["--light_protocol", light_protocol,
                         "--light_seconds", "%g" % light_seconds]
            if self.args.trace:
                args += ["--trace", os.path.join(WORK, name + ".tree.tsv")]
            out = perfgen(args, self.all_cores)
            for p in out["protocols"]:
                self.attempted += p["ops"] + p["light_ops"] + \
                    p["untraced_ops"]
                self.failed += p["mismatches"]
                if not p["ok"]:
                    self.problem("%s tree failed its checks (mismatches %d, "
                                 "counts ok %s)" % (p["protocol"],
                                                    p["mismatches"],
                                                    p["count_ok"]))
                runs.setdefault(p["protocol"], []).append(p)
        self.record["trees"] = {
            k: [{f: v for f, v in p.items() if f != "latch_levels"}
                for p in ps] for k, ps in runs.items()}
        if processes == 1:
            return {k: ps[0] for k, ps in runs.items()}
        return {k: {"ops_s": statistics.median(p["ops_s"] for p in ps),
                    "window_rps": [w for p in ps for w in p["window_rps"]]}
                for k, ps in runs.items()}

    def tree_throughput(self, runs):
        for proto in PROTOCOLS:
            p = runs[proto]
            self.metric("tree_ops_s." + proto, p["ops_s"], "1/s",
                        len(p["window_rps"]))

    def tree_layers(self, runs):
        for proto in PROTOCOLS:
            p = runs[proto]
            kops = p["counted_ops"] / 1e3
            pre = "ctree.%s." % proto
            for op in ("search", "insert", "delete"):
                q = p[op + "_ns"]
                self.metric(pre + op + "_ns", q["mean"], "ns", q["n"])
            self.metric(pre + "splits_per_kop", ratio(p["splits"], kops),
                        "count", p["ops"])
            if proto in ("optimistic", "olc"):
                self.metric(pre + "restarts_per_kop",
                            ratio(p["restarts"], kops), "count", p["ops"])
            if proto in ("link", "olc"):
                self.metric(pre + "link_crossings_per_kop",
                            ratio(p["link_crossings"], kops), "count",
                            p["ops"])
            if proto != "olc":  # OLC takes no latches
                levels = p["latch_levels"]
                root = max(levels, key=lambda l: l["level"])
                leaf = [l for l in levels if l["level"] == 1][0]
                for where, lv in (("root", root), ("leaf", leaf)):
                    self.metric(pre + "latch.%s_contended_frac" % where,
                                ratio(lv["contended"], lv["acquisitions"]),
                                "fraction", lv["acquisitions"])
                self.metric(pre + "latch.root_wait_us",
                            ratio(root["wait_ns"], root["contended"]) / 1e3,
                            "us", root["contended"])
        olc = runs["olc"]
        self.metric("epoch.retired_per_kop",
                    ratio(olc["epoch_retired"], olc["counted_ops"] / 1e3),
                    "count", olc["counted_ops"])
        self.metric("epoch.pending_max", olc["epoch_pending_max"], "count",
                    len(olc["window_rps"]))

    def tree_workload(self, name, workload):
        s = self.args.seconds
        runs = self.tree_runs(workload["mix"], workload["zipf"],
                              workload["keys"], 0.16 * s, "olc", 0.2 * s,
                              name)
        olc = runs["olc"]
        if not self.args.trace:
            builds = [runs[p]["build_s"] for p in PROTOCOLS]
            self.metric("setup_s", statistics.median(builds), "s",
                        len(builds))
            self.metric("peak_rps", olc["ops_s"], "1/s",
                        len(olc["window_rps"]))
            self.metric("p50_us.light", olc["light_latency_ns"]["p50"] / 1e3,
                        "us", olc["light_latency_ns"]["n"])
            self.metric("p50_us.loaded", olc["latency_ns"]["p50"] / 1e3, "us",
                        olc["latency_ns"]["n"])
            self.tree_throughput(runs)
        else:
            self.tree_layers(runs)
            self.metric("obs.trace_overhead_frac",
                        1.0 - olc["ops_s"] / olc["untraced_ops_s"],
                        "fraction", len(olc["window_rps"]))
            self.idle_serving_layers()

    def idle_serving_layers(self):
        """tree_contended has no net and no WAL: their metrics are 0."""
        for p in ("light", "loaded", "peak"):
            for st in STAGES:
                self.metric("net.stage.%s_us.%s" % (st, p), 0.0, "us", 0)
            for m, unit in (("batch_size", "requests"),
                            ("rejected_frac", "fraction"),
                            ("server_cpu_us_per_op", "us"),
                            ("outside_server_us", "us"),
                            ("client.p99_us", "us"),
                            ("client.p999_us", "us")):
                self.metric("net.%s.%s" % (m, p), 0.0, unit, 0)
            if p != "peak":
                self.metric("net.client.send_lag_us." + p, 0.0, "us", 0)
        self.metric("net.invalid_phases", 0, "count", 0)
        for m, unit in (("appends_per_fsync", "appends"),
                        ("group_size", "appends"), ("fsync_us", "us"),
                        ("sync_wait_us", "us"), ("bytes_per_write", "bytes"),
                        ("replay_s", "s")):
            self.metric("wal." + m, 0.0, unit, 0)


# ---------------------------------------------------------------------------

def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    worst = 0
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   "%g" % args.seconds, "--trace", str(trace)]
            if args.build_config:
                cmd += ["--build-config", args.build_config]
            worst = max(worst, subprocess.call(cmd, cwd=ROOT))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them with and "
                        "without tracing")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-config", default=None,
                        help='e.g. "build=Release obs=1 latch_check=0"')
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    spec = load_benchmark_spec()
    if args.build_config is None:
        cmd = spec["command"]
        args.build_config = cmd[cmd.index("--build-config") + 1]
    config = parse_config(args.build_config)

    os.makedirs(WORK, exist_ok=True)
    started = time.time()
    build(config)
    fields = check_provenance(
        subprocess.run([PERFGEN, "provenance"], capture_output=True,
                       text=True, timeout=30).stdout.strip(), config,
        "perfgen")
    selftest = subprocess.run([PERFGEN, "selftest"], capture_output=True,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        raise BenchError("perfgen selftest failed:\n" + selftest.stderr)

    steal0, total0 = cpu_times()
    run = Run(args, config)
    workload = WORKLOADS[args.workload]
    if workload["kind"] == "serve":
        run.serve_workload(args.workload, workload)
    else:
        run.tree_workload(args.workload, workload)

    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    missing = [m for m in wanted if m not in run.metrics]
    if missing:
        raise BenchError("workload did not produce %s" % missing)

    steal1, total1 = cpu_times()
    # Time the hypervisor ran someone else on this VM's CPUs; high values
    # explain slow or spread-out runs.
    steal_frac = ratio(steal1 - steal0, total1 - total0)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "git_sha": git_sha() or fields.get("sha"),
            "source_digest": source_digest(),
            "build_config": config, "perfgen_build": fields,
            "nproc": os.cpu_count(), "kernel": os.uname().release,
            "generator_cores": run.gen_cores,
            "server_cores": run.server_cores,
            "cpu_steal_frac": steal_frac,
        },
        "wall_s": time.time() - started,
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in run.metrics.items()},
    }
    record.update(run.record)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)

    print("%s seed %d (%s, trace %d): %d ops attempted, %d failed; "
          "cpu steal %.1f%%" % (args.workload, args.seed, args.build_config,
                               args.trace, run.attempted, run.failed,
                               100 * steal_frac))
    for name in wanted:
        value, unit, n = run.metrics[name]
        print("  %-40s %16.6g %-9s n=%d" % (name, value, unit, n))
    print("  record: %s" % os.path.relpath(path, ROOT))
    correct = not run.problems
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name][0],
                           "unit": run.metrics[name][1]}
                    for name in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    except ConfigRefused as e:
        log("refused: %s" % e)
        code = 3
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("benchmark failed: %s: %s" % (type(e).__name__, e))
        code = 2
    finally:
        reap_all()
    sys.exit(code)
