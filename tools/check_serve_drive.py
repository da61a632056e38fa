#!/usr/bin/env python3
"""End-to-end loopback check: `cbtree serve` + `cbtree drive`.

Usage: check_serve_drive.py <cbtree-binary> [--protocol=...] [--lambda=...]
           [--shards=N] [--loops=N] [--qs=.. --qi=.. --qd=..]
           [--wal [--fsync=...] [--group_commit_us=...] [--recovery=...]]

Starts a server on an ephemeral port, waits for its "listening on" line,
runs the open-loop driver against it with --json, then SIGINTs the server
and checks both sides:

  * drive exits 0 and its JSON is SimPoint-shape-compatible (kind "drive",
    stats with resp_p50/p95/p99, counts with completed) with zero lost
    requests: sent == completed + rejected, errors == unanswered == 0, and
    the per-shard sent/completed arrays sum to the totals;
  * serve drains gracefully on SIGINT: exits 0 within 30 s and its final
    report agrees with the driver on the number of completed requests.

--wal runs the server write-ahead logged into a fresh temporary directory
(--fsync, --group_commit_us and --recovery pass through to serve) and adds
the group-commit gate. Serve's report must carry both wal lines, and its
`wal serving N appends in M fsyncs` line (the serving window, preload
excluded) must show N >= 1000, so the run is large enough to judge, and,
unless fsync is off, N / M >= 2: group commit amortizes its barriers.
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time

WAL_REPORT_RE = re.compile(r"wal\s+\d+ appends in \d+ groups \(\d+ fsyncs")
WAL_SERVING_RE = re.compile(r"wal serving (\d+) appends in (\d+) fsyncs")
MIN_SERVING_APPENDS = 1000
MIN_APPENDS_PER_FSYNC = 2.0


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_group_commit(tail, fsync):
    """Gates the serve report's WAL lines; returns the summary text."""
    if not WAL_REPORT_RE.search(tail):
        fail(f"WAL run but serve printed no wal line:\n{tail}")
    match = WAL_SERVING_RE.search(tail)
    if not match:
        fail(f"WAL run but serve printed no wal serving line:\n{tail}")
    appends, fsyncs = int(match.group(1)), int(match.group(2))
    ratio = appends / max(fsyncs, 1)
    summary = f"wal serving {appends} appends / {fsyncs} fsyncs ({ratio:.2f}x)"
    # A window too small to judge fails rather than passes: a gate that
    # skips when it cannot see would pass for the wrong reason.
    if appends < MIN_SERVING_APPENDS:
        fail(f"{summary}: fewer than {MIN_SERVING_APPENDS} serving appends, "
             f"too few to judge group commit")
    # Near 1x means every append paid its own durability barrier: a
    # pipeline regression, not noise (slower disks coalesce more, not less).
    if fsync != "off" and ratio < MIN_APPENDS_PER_FSYNC:
        fail(f"{summary}: group commit not amortizing "
             f"(< {MIN_APPENDS_PER_FSYNC:.0f} appends per fsync)")
    return summary


def main():
    if len(sys.argv) < 2:
        fail("usage: check_serve_drive.py <cbtree-binary> [flags...]")
    binary = sys.argv[1]
    protocol = "blink"
    lam = "1500"
    shards = "1"
    loops = "1"
    mix = []  # extra --qs/--qi/--qd flags forwarded to drive
    wal = False
    fsync = "data"  # serve's default
    wal_flags = []  # --fsync/--group_commit_us/--recovery forwarded to serve
    for flag in sys.argv[2:]:
        name, _, value = flag.partition("=")
        if name == "--protocol":
            protocol = value
        elif name == "--lambda":
            lam = value
        elif name == "--shards":
            shards = value
        elif name == "--loops":
            loops = value
        elif name in ("--qs", "--qi", "--qd"):
            mix.append(flag)
        elif flag == "--wal":
            wal = True
        elif name in ("--fsync", "--group_commit_us", "--recovery"):
            wal_flags.append(flag)
            if name == "--fsync":
                fsync = value
        else:
            fail(f"unknown flag {flag}")
    if wal_flags and not wal:
        fail(f"{' '.join(wal_flags)} given without --wal")

    wal_dir = None
    serve_args = [binary, "serve", f"--protocol={protocol}", "--port=0",
                  "--items=5000", "--workers=4", f"--shards={shards}",
                  f"--loops={loops}"]
    if wal:
        wal_dir = tempfile.TemporaryDirectory(prefix="cbtree_serve_drive_wal_")
        serve_args += [f"--wal_dir={wal_dir.name}"] + wal_flags
    serve = subprocess.Popen(serve_args, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    try:
        # Readiness handshake: serve prints "listening on HOST:PORT" once
        # the socket is bound.
        port = None
        deadline = time.time() + 10
        lines = []
        while time.time() < deadline:
            line = serve.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            serve.kill()
            fail(f"serve never printed its port:\n{''.join(lines)}")

        drive = subprocess.run(
            [binary, "drive", f"--port={port}", f"--lambda={lam}",
             "--duration=2s", "--connections=4", "--items=5000",
             "--zipf=0.4", f"--shards={shards}", "--json"] + mix,
            capture_output=True, text=True, timeout=60)
        if drive.returncode != 0:
            serve.kill()
            fail(f"drive exited {drive.returncode}:\n{drive.stdout}\n"
                 f"{drive.stderr}")
        try:
            report = json.loads(drive.stdout)
        except json.JSONDecodeError as err:
            serve.kill()
            fail(f"drive stdout is not JSON: {err}\n{drive.stdout[:500]}")

        if report.get("kind") != "drive":
            fail(f"kind != drive: {report.get('kind')}")
        if not report.get("ok"):
            fail(f"drive report not ok: {drive.stdout}")
        stats = report.get("stats", {})
        for key in ("completed", "sent", "rejected", "errors", "unanswered",
                    "resp_p50", "resp_p95", "resp_p99", "mean_active_ops",
                    "achieved_throughput"):
            if key not in stats:
                fail(f"stats missing '{key}': {stats}")
        # The acceptance invariant: zero lost requests.
        if stats["errors"] != 0 or stats["unanswered"] != 0:
            fail(f"lossy run: {stats}")
        if stats["sent"] != stats["completed"] + stats["rejected"]:
            fail(f"sent != completed + rejected: {stats}")
        if stats["sent"] == 0:
            fail("driver sent nothing")
        if not (stats["resp_p50"] <= stats["resp_p95"] <= stats["resp_p99"]):
            fail(f"percentiles not monotone: {stats}")
        # Per-shard occupancy must fold back to the totals exactly.
        if sum(stats.get("shard_sent", [])) != stats["sent"]:
            fail(f"shard_sent does not sum to sent: {stats}")
        if sum(stats.get("shard_completed", [])) != stats["completed"]:
            fail(f"shard_completed does not sum to completed: {stats}")

        serve.send_signal(signal.SIGINT)
        try:
            serve.wait(timeout=30)
        except subprocess.TimeoutExpired:
            serve.kill()
            fail("serve did not drain within 30s of SIGINT")
        tail = serve.stdout.read()
        if serve.returncode != 0:
            fail(f"serve exited {serve.returncode}:\n{tail}")
        match = re.search(r"(\d+) completed", tail)
        if not match:
            fail(f"serve report missing completed count:\n{tail}")
        if int(match.group(1)) != stats["completed"]:
            fail(f"serve completed {match.group(1)} != "
                 f"drive completed {stats['completed']}")
        summary = check_group_commit(tail, fsync) if wal else ""
        print(f"OK: {protocol} lambda={lam} sent={stats['sent']} "
              f"completed={stats['completed']} rejected={stats['rejected']} "
              f"p99={stats['resp_p99']:.6f}s {summary}".rstrip())
    finally:
        if serve.poll() is None:
            serve.kill()
        if wal_dir is not None:
            wal_dir.cleanup()


if __name__ == "__main__":
    main()
