#!/usr/bin/env python3
"""Live observability smoke test: serve + drive + mid-run `cbtree stat`.

Usage: check_live_stats.py <cbtree-binary> [--protocol=...] [--lambda=...]

Starts `cbtree serve` with the periodic stats ticker and a JSONL stats file,
drives it with the open-loop Poisson client, and — while the drive is still
running — polls `cbtree stat --json` over the data port. Afterwards it
SIGINTs the server and reconciles every layer of the telemetry against the
functional accounting:

  * mid-run polls answer (the admin plane works under load) and their
    cumulative totals are monotone across polls;
  * serve drains cleanly and its final report agrees with the driver on the
    completed count (the check_serve_drive.py invariant);
  * on observability-enabled builds the JSONL interval series telescopes:
    for EVERY counter, the interval deltas sum bit-exactly to the last
    line's cumulative total, and the cumulative "srv.completed" equals the
    completed count both sides reported. On CBTREE_OBS=OFF builds the polls
    must say "obs": false and no series is written — proving the plane
    compiles out while kStats still answers.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def poll_stat(binary, port):
    stat = subprocess.run(
        [binary, "stat", f"--port={port}", "--json"],
        capture_output=True, text=True, timeout=15)
    if stat.returncode != 0:
        fail(f"stat exited {stat.returncode}:\n{stat.stdout}\n{stat.stderr}")
    try:
        return json.loads(stat.stdout)
    except json.JSONDecodeError as err:
        fail(f"stat output is not JSON: {err}\n{stat.stdout[:500]}")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_live_stats.py <cbtree-binary> [flags...]")
    binary = sys.argv[1]
    protocol = "link"
    lam = "1200"
    for flag in sys.argv[2:]:
        name, _, value = flag.partition("=")
        if name == "--protocol":
            protocol = value
        elif name == "--lambda":
            lam = value
        else:
            fail(f"unknown flag {flag}")

    fd, stats_path = tempfile.mkstemp(prefix="cbtree_stats_", suffix=".jsonl")
    os.close(fd)
    os.unlink(stats_path)  # serve creates it (obs builds only)

    serve = subprocess.Popen(
        [binary, "serve", f"--protocol={protocol}", "--port=0",
         "--items=5000", "--shards=2", "--loops=2",
         "--stats_interval=0.1", f"--stats_file={stats_path}"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
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

        drive = subprocess.Popen(
            [binary, "drive", f"--port={port}", f"--lambda={lam}",
             "--duration=2s", "--connections=4", "--items=5000",
             "--zipf=0.4", "--shards=2", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

        # Poll the admin plane while the drive load is in flight.
        polls = []
        for _ in range(4):
            time.sleep(0.4)
            polls.append(poll_stat(binary, port))

        drive_out, drive_err = drive.communicate(timeout=60)
        if drive.returncode != 0:
            serve.kill()
            fail(f"drive exited {drive.returncode}:\n{drive_out}\n"
                 f"{drive_err}")
        report = json.loads(drive_out)
        if not report.get("ok"):
            fail(f"drive report not ok: {drive_out[:500]}")
        stats = report["stats"]
        if stats["errors"] != 0 or stats["unanswered"] != 0:
            fail(f"lossy run: {stats}")

        # Mid-run polls: present, well-shaped, monotone.
        obs_enabled = polls[0].get("obs")
        if obs_enabled is None:
            fail(f"stat body missing 'obs': {polls[0]}")
        for key in ("uptime_s", "totals", "build", "shards_detail"):
            if key not in polls[0]:
                fail(f"stat body missing '{key}'")
        for prev, cur in zip(polls, polls[1:]):
            if cur["uptime_s"] <= prev["uptime_s"]:
                fail("uptime not increasing across polls")
            for counter in ("requests", "completed", "stats_requests"):
                if cur["totals"][counter] < prev["totals"][counter]:
                    fail(f"totals.{counter} went backwards across polls")
        if polls[-1]["totals"]["completed"] == 0:
            fail("no completed requests visible mid-run")
        if polls[-1]["totals"]["stats_requests"] < 3:
            fail("stats_requests does not count the admin polls")
        if obs_enabled and polls[-1]["intervals_recorded"] == 0:
            fail("ticker recorded no intervals despite --stats_interval")

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
        serve_completed = int(match.group(1))
        if serve_completed != stats["completed"]:
            fail(f"serve completed {serve_completed} != "
                 f"drive completed {stats['completed']}")

        if obs_enabled:
            # The JSONL series telescopes: deltas sum exactly to the final
            # cumulative totals, which agree with the functional accounting.
            try:
                with open(stats_path) as handle:
                    intervals = [json.loads(l) for l in handle if l.strip()]
            except OSError as err:
                fail(f"cannot read stats file: {err}")
            if not intervals:
                fail("stats file is empty")
            delta_sums = {}
            for i, interval in enumerate(intervals):
                if interval["seq"] != i:
                    fail(f"interval seq not contiguous at line {i}")
                for name, value in interval["delta"]["counters"].items():
                    delta_sums[name] = delta_sums.get(name, 0) + value
            final = intervals[-1]["cumulative"]["counters"]
            for name, total in final.items():
                if delta_sums.get(name, 0) != total:
                    fail(f"interval deltas for '{name}' sum to "
                         f"{delta_sums.get(name, 0)}, cumulative {total}")
            if final.get("srv.completed") != serve_completed:
                fail(f"series srv.completed {final.get('srv.completed')} != "
                     f"serve report {serve_completed}")
            print(f"OK: {protocol} lambda={lam} "
                  f"completed={serve_completed} polls={len(polls)} "
                  f"intervals={len(intervals)} (exact reconciliation)")
        else:
            if os.path.exists(stats_path) and os.path.getsize(stats_path):
                fail("CBTREE_OBS=OFF build wrote a stats series")
            print(f"OK: {protocol} lambda={lam} "
                  f"completed={serve_completed} polls={len(polls)} "
                  f"(obs compiled out; kStats still answers)")
    finally:
        if serve.poll() is None:
            serve.kill()
        if os.path.exists(stats_path):
            os.unlink(stats_path)


if __name__ == "__main__":
    main()
