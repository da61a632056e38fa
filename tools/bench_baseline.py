#!/usr/bin/env python3
"""Run the canonical serve/drive campaign and emit BENCH_serve_<protocol>.json.

Usage:
    bench_baseline.py <cbtree-binary> [--out-dir=DIR] [--quick]
                      [--protocols=naive,optimistic,link,two-phase,olc]
                      [--wal-protocols=olc]

For each protocol this starts `cbtree serve` with the canonical sharded
topology, drives it with the open-loop Poisson client at a rate chosen well
below saturation, and writes one machine-readable baseline file. Because the
offered load is sub-saturation, achieved throughput tracks lambda on any
reasonable machine, which is what makes the committed baselines comparable
across hosts; the latency percentiles are recorded for trend-watching but
are machine-dependent by nature (bench_compare.py treats them as advisory).

The baseline file records the full campaign config, so bench_compare.py can
re-run the identical campaign without guessing flags.

--wal-protocols adds a durability dimension: the same campaign with a
write-ahead log behind the tree (--fsync=data, group commit on), written to
BENCH_serve_<protocol>_wal.json. It runs at a higher offered load than the
no-WAL campaigns (WAL_OVERLAY), one where group commit can form groups, and
its committed numbers are the standing evidence that (a) ack-after-durable
serving keeps up with that load and (b) group commit amortizes over the
serving window: fsyncs ≪ appends, with the preload excluded.
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time

SCHEMA = "cbtree-bench-serve-v1"
PROTOCOLS = ["naive", "optimistic", "link", "two-phase", "olc"]
WAL_PROTOCOLS = ["olc"]

# The canonical campaign: modest sizes so CI boxes finish in seconds, and an
# offered load comfortably below a single-core saturation point.
CANONICAL = {
    "shards": 2,
    "loops": 2,
    "workers": 4,
    "items": 5000,
    "lambda": 1200.0,
    "duration": "2s",
    "connections": 4,
    "zipf": 0.4,
    "seed": 1,
}
QUICK_OVERRIDES = {"lambda": 800.0, "duration": "1s"}
# The WAL dimension rides on the canonical campaign: durable acks under
# group commit, one fdatasync per group. recovery=none is the serving
# default (acks released by the log writer once durable); the Figure 15/16
# retention variants are EXPERIMENTS.md material, not baseline material.
#
# Its lambda is raised until groups can form. The drive mix is 30/50/20, so
# ~70% of requests are writes, split over 2 shards. The 200 us coalescing
# window counts from the append that opens a group, and the previous
# group's fdatasync and ack release overlap it, so one group-commit cycle
# is ~= max(window, barrier + release), not window + barrier. A group is
# its opening write plus the writes that arrive in its window: writes per
# group ~= 1 + lambda * 0.7 / 2 * 200e-6, so >= 2 per group needs
# lambda >= 2 / (0.7 * 200e-6) ~= 14.3k/s (2.4 at 20k/s). The committed
# run at 20k/s measured 2.6 appends per fsync over the serving window.
WAL_OVERLAY = {"wal": True, "fsync": "data", "group_commit_us": 200,
               "recovery": "none", "lambda": 20000.0}

WAL_REPORT_RE = re.compile(
    r"wal\s+(\d+) appends in (\d+) groups \((\d+) fsyncs, max group (\d+)\), "
    r"(\d+) bytes, (\d+) segments")
# The serving window alone (preload excluded): what the amortization gate
# judges.
WAL_SERVING_RE = re.compile(r"wal serving (\d+) appends in (\d+) fsyncs")


def quick_overrides(config):
    """What --quick changes in a campaign: a shorter run, and for the no-WAL
    campaigns a lower lambda. A WAL campaign keeps its lambda, below which
    groups cannot form."""
    if config.get("wal"):
        return {"duration": QUICK_OVERRIDES["duration"]}
    return QUICK_OVERRIDES


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_campaign(binary, protocol, config, timeout=120):
    """Runs one serve+drive campaign; returns the full drive report dict
    (stats under "stats", build provenance under "build").

    Raises RuntimeError on any accounting or lifecycle violation — those are
    correctness failures, never performance noise.

    With config["wal"] the server runs write-ahead logged (fresh temp log
    directory per campaign) and the returned report carries the serve-side
    WAL accounting under "wal".
    """
    serve_args = [binary, "serve", f"--protocol={protocol}", "--port=0",
                  f"--shards={config['shards']}", f"--loops={config['loops']}",
                  f"--workers={config['workers']}",
                  f"--items={config['items']}", f"--seed={config['seed']}"]
    wal_dir = None
    if config.get("wal"):
        wal_dir = tempfile.TemporaryDirectory(prefix="cbtree_bench_wal_")
        serve_args += [f"--wal_dir={wal_dir.name}",
                       f"--fsync={config['fsync']}",
                       f"--group_commit_us={config['group_commit_us']}",
                       f"--recovery={config['recovery']}"]
    serve = subprocess.Popen(serve_args, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    try:
        port = None
        deadline = time.time() + 15
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
            raise RuntimeError(
                f"serve never printed its port:\n{''.join(lines)}")

        drive = subprocess.run(
            [binary, "drive", f"--port={port}",
             f"--lambda={config['lambda']}",
             f"--duration={config['duration']}",
             f"--connections={config['connections']}",
             f"--items={config['items']}", f"--zipf={config['zipf']}",
             f"--seed={config['seed']}", f"--shards={config['shards']}",
             "--json"],
            capture_output=True, text=True, timeout=timeout)
        if drive.returncode != 0:
            serve.kill()
            raise RuntimeError(
                f"drive exited {drive.returncode}:\n{drive.stdout}\n"
                f"{drive.stderr}")
        report = json.loads(drive.stdout)
        stats = report.get("stats", {})

        serve.send_signal(signal.SIGINT)
        try:
            serve.wait(timeout=30)
        except subprocess.TimeoutExpired:
            serve.kill()
            raise RuntimeError("serve did not drain within 30s of SIGINT")
        tail = serve.stdout.read()
        if serve.returncode != 0:
            raise RuntimeError(f"serve exited {serve.returncode}:\n{tail}")

        # Accounting invariants — hard requirements everywhere, always.
        if not report.get("ok"):
            raise RuntimeError(f"drive report not ok: {stats}")
        if stats.get("errors", 1) != 0 or stats.get("unanswered", 1) != 0:
            raise RuntimeError(f"lossy run: {stats}")
        if stats["sent"] != stats["completed"] + stats["rejected"]:
            raise RuntimeError(f"sent != completed + rejected: {stats}")
        if sum(stats.get("shard_sent", [])) != stats["sent"]:
            raise RuntimeError(f"shard_sent does not sum to sent: {stats}")
        if sum(stats.get("shard_completed", [])) != stats["completed"]:
            raise RuntimeError(
                f"shard_completed does not sum to completed: {stats}")
        match = re.search(r"(\d+) completed", tail)
        if not match or int(match.group(1)) != stats["completed"]:
            raise RuntimeError(
                f"serve/drive disagree on completed:\n{tail}")
        if config.get("wal"):
            wal_match = WAL_REPORT_RE.search(tail)
            serving_match = WAL_SERVING_RE.search(tail)
            if not wal_match or not serving_match:
                raise RuntimeError(
                    f"WAL campaign but serve printed no wal lines:\n{tail}")
            report["wal"] = {
                "appends": int(wal_match.group(1)),
                "groups": int(wal_match.group(2)),
                "fsyncs": int(wal_match.group(3)),
                "max_group": int(wal_match.group(4)),
                "bytes": int(wal_match.group(5)),
                "segments": int(wal_match.group(6)),
                "serving_appends": int(serving_match.group(1)),
                "serving_fsyncs": int(serving_match.group(2)),
            }
        return report
    finally:
        if serve.poll() is None:
            serve.kill()
        if wal_dir is not None:
            wal_dir.cleanup()


def baseline_path(out_dir, protocol, wal=False):
    suffix = "_wal" if wal else ""
    return f"{out_dir}/BENCH_serve_{protocol}{suffix}.json"


def main():
    args = sys.argv[1:]
    if not args or args[0].startswith("--"):
        fail("usage: bench_baseline.py <cbtree-binary> [--out-dir=DIR] "
             "[--quick] [--protocols=a,b,...]")
    binary = args[0]
    out_dir = "."
    quick = False
    protocols = PROTOCOLS
    wal_protocols = WAL_PROTOCOLS
    for flag in args[1:]:
        if flag.startswith("--out-dir="):
            out_dir = flag.split("=", 1)[1]
        elif flag == "--quick":
            quick = True
        elif flag.startswith("--protocols="):
            value = flag.split("=", 1)[1]
            protocols = value.split(",") if value else []
        elif flag.startswith("--wal-protocols="):
            value = flag.split("=", 1)[1]
            wal_protocols = value.split(",") if value else []
        else:
            fail(f"unknown flag {flag}")

    campaigns = [(protocol, False) for protocol in protocols]
    campaigns += [(protocol, True) for protocol in wal_protocols]
    for protocol, wal in campaigns:
        campaign_config = dict(CANONICAL)
        if wal:
            campaign_config.update(WAL_OVERLAY)
        if quick:
            campaign_config.update(quick_overrides(campaign_config))
        try:
            report = run_campaign(binary, protocol, campaign_config)
        except (RuntimeError, json.JSONDecodeError,
                subprocess.TimeoutExpired) as err:
            fail(f"{protocol}{'+wal' if wal else ''}: {err}")
        stats = report["stats"]
        result = {
            "sent": stats["sent"],
            "completed": stats["completed"],
            "rejected": stats["rejected"],
            "errors": stats["errors"],
            "unanswered": stats["unanswered"],
            "achieved_throughput": stats["achieved_throughput"],
            "resp_p50": stats["resp_p50"],
            "resp_p95": stats["resp_p95"],
            "resp_p99": stats["resp_p99"],
            "shard_sent": stats["shard_sent"],
            "shard_completed": stats["shard_completed"],
        }
        if wal:
            result["wal"] = report["wal"]
        baseline = {
            "schema": SCHEMA,
            "protocol": protocol,
            "config": campaign_config,
            # Provenance of the build that produced the committed numbers;
            # bench_compare.py prints committed-vs-current on a mismatch.
            "build": report.get("build", {}),
            "result": result,
        }
        path = baseline_path(out_dir, protocol, wal)
        with open(path, "w") as out:
            json.dump(baseline, out, indent=2, sort_keys=True)
            out.write("\n")
        note = ""
        if wal:
            wal_stats = report["wal"]
            note = (f" wal serving: {wal_stats['serving_appends']} appends / "
                    f"{wal_stats['serving_fsyncs']} fsyncs")
        print(f"OK: {path} throughput="
              f"{stats['achieved_throughput']:.0f}/s "
              f"p99={stats['resp_p99']:.6f}s{note}")


if __name__ == "__main__":
    main()
