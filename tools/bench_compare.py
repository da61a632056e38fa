#!/usr/bin/env python3
"""Re-run the committed BENCH_serve_*.json campaigns and compare.

Usage:
    bench_compare.py <cbtree-binary> [--baseline-dir=DIR]
                     [--tolerance=25%] [--quick] [--strict]
                     [--protocols=naive,optimistic,link,two-phase,olc]
                     [--wal-protocols=olc]

Each baseline file records its full campaign config; this script replays the
identical campaign and compares two different classes of result:

  * Accounting invariants (zero lost requests, shard occupancy sums,
    serve/drive agreement) — HARD failures. A violation exits nonzero no
    matter what; these are correctness, not performance.
  * Performance deltas (achieved throughput vs the committed baseline, p99
    for trend context) — ADVISORY by default, printed for the CI log. With
    --strict a throughput deviation beyond the tolerance also fails the run
    (for use on dedicated, quiet benchmarking hosts; shared CI runners are
    too noisy for hard perf gates).

--quick shortens the replay the same way bench_baseline.py --quick does;
throughput is still comparable because the offered load stays
sub-saturation, where achieved throughput tracks lambda, not the machine.

--wal-protocols replays the committed BENCH_serve_<protocol>_wal.json
campaigns (write-ahead logged serving, --fsync=data) under the same rules,
plus one WAL-specific hard invariant: group commit must actually amortize
over the serving window (preload excluded) — a run where every append paid
its own fsync is a durability-pipeline regression, not machine noise.
"""

import json
import subprocess
import sys

from bench_baseline import (PROTOCOLS, SCHEMA, WAL_PROTOCOLS, baseline_path,
                            quick_overrides, run_campaign)


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def parse_tolerance(text):
    text = text.rstrip("%")
    try:
        value = float(text) / 100.0
    except ValueError:
        fail(f"bad --tolerance '{text}'")
    if value <= 0:
        fail("--tolerance must be positive")
    return value


def relative_delta(current, committed):
    if committed == 0:
        return float("inf") if current != 0 else 0.0
    return (current - committed) / committed


def format_build(build):
    """One-line provenance, e.g. 'sha=1a2b3c build=Release obs=on'."""
    if not build:
        return "(no provenance recorded)"
    parts = [f"sha={build.get('git_sha', '?')}",
             f"build={build.get('build_type', '?')}",
             f"obs={'on' if build.get('obs') else 'off'}",
             f"latch_check={'on' if build.get('latch_check') else 'off'}"]
    if build.get("sanitize"):
        parts.append(f"sanitize={build['sanitize']}")
    return " ".join(parts)


def main():
    args = sys.argv[1:]
    if not args or args[0].startswith("--"):
        fail("usage: bench_compare.py <cbtree-binary> [--baseline-dir=DIR] "
             "[--tolerance=25%] [--quick] [--strict] [--protocols=a,b,...]")
    binary = args[0]
    baseline_dir = "."
    tolerance = 0.25
    quick = False
    strict = False
    protocols = PROTOCOLS
    wal_protocols = WAL_PROTOCOLS
    for flag in args[1:]:
        if flag.startswith("--baseline-dir="):
            baseline_dir = flag.split("=", 1)[1]
        elif flag.startswith("--tolerance="):
            tolerance = parse_tolerance(flag.split("=", 1)[1])
        elif flag == "--quick":
            quick = True
        elif flag == "--strict":
            strict = True
        elif flag.startswith("--protocols="):
            value = flag.split("=", 1)[1]
            protocols = value.split(",") if value else []
        elif flag.startswith("--wal-protocols="):
            value = flag.split("=", 1)[1]
            wal_protocols = value.split(",") if value else []
        else:
            fail(f"unknown flag {flag}")

    hard_failures = []
    advisories = []
    campaigns = [(protocol, False) for protocol in protocols]
    campaigns += [(protocol, True) for protocol in wal_protocols]
    for protocol, wal in campaigns:
        label = f"{protocol}+wal" if wal else protocol
        path = baseline_path(baseline_dir, protocol, wal)
        try:
            with open(path) as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            fail(f"cannot read baseline {path}: {err}")
        if baseline.get("schema") != SCHEMA:
            fail(f"{path}: unknown schema {baseline.get('schema')}")
        config = dict(baseline["config"])
        if quick:
            config.update(quick_overrides(config))
        committed = baseline["result"]
        committed_build = baseline.get("build", {})

        try:
            report = run_campaign(binary, protocol, config)
        except (RuntimeError, json.JSONDecodeError,
                subprocess.TimeoutExpired) as err:
            hard_failures.append(f"{label}: {err}")
            continue
        stats = report["stats"]
        current_build = report.get("build", {})

        throughput_delta = relative_delta(stats["achieved_throughput"],
                                          committed["achieved_throughput"])
        p99_delta = relative_delta(stats["resp_p99"], committed["resp_p99"])
        line = (f"{label}: throughput "
                f"{stats['achieved_throughput']:.0f}/s vs committed "
                f"{committed['achieved_throughput']:.0f}/s "
                f"({throughput_delta:+.1%}), p99 "
                f"{stats['resp_p99']:.6f}s vs {committed['resp_p99']:.6f}s "
                f"({p99_delta:+.1%})")
        if wal:
            wal_stats = report["wal"]
            appends = wal_stats["serving_appends"]
            fsyncs = wal_stats["serving_fsyncs"]
            amortization = appends / max(fsyncs, 1)
            line += (f", wal serving {appends} appends / {fsyncs} fsyncs "
                     f"({amortization:.1f}x)")
            # Group commit must amortize: near-1x on a sizeable run means
            # every append paid its own durability barrier — a pipeline
            # regression, not noise (slower disks coalesce MORE, not less).
            # Judged on the serving window only: the preload is logged in
            # one burst before the listeners open and would pass any gate.
            if (config.get("fsync") != "off"
                    and appends >= 1000 and amortization < 2.0):
                hard_failures.append(
                    f"{label}: group commit not amortizing: "
                    f"{appends} serving appends took {fsyncs} fsyncs")
        # Only a throughput SHORTFALL beyond tolerance is flagged; running
        # faster than the committed number is not a regression. When --quick
        # changes lambda, compare against the offered load instead of the
        # full-length committed number.
        offered = config["lambda"]
        achieved_vs_offered = relative_delta(stats["achieved_throughput"],
                                             offered)
        regressed = achieved_vs_offered < -tolerance
        if regressed:
            message = (f"{line} -- achieved {achieved_vs_offered:+.1%} vs "
                       f"offered lambda {offered:.0f}/s, beyond "
                       f"{tolerance:.0%}")
            if strict:
                hard_failures.append(message)
            else:
                advisories.append(message)
            print(f"WARN: {message}")
            # A mismatch is only interpretable knowing WHAT produced each
            # number: the committed baseline's build vs the replay's.
            print(f"  committed build: {format_build(committed_build)}")
            print(f"  current build:   {format_build(current_build)}")
        else:
            print(f"OK: {line}")

    for message in advisories:
        print(f"ADVISORY (not failing the build): {message}")
    if hard_failures:
        for message in hard_failures:
            print(f"HARD FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print("bench_compare: all campaigns clean")


if __name__ == "__main__":
    main()
