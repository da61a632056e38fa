#!/usr/bin/env python3
"""Fixture-driven test for the cbtree-tidy checks.

For every fixture pair under tests/tidy_fixtures/ this driver:

  1. runs the corresponding cbtree-* check over the positive fixture and
     asserts the emitted diagnostics match the `// expect-diag: <check>`
     markers EXACTLY — same file, same line, same check name; a missed
     seeded violation or an extra diagnostic both fail;
  2. runs the check over the negative fixture and asserts zero diagnostics;
  3. finally runs all six checks over the real tree/epoch sources (and the
     obs compile-out check over net/sim, the wal-append check over
     wal/ctree/net) and asserts they are clean.

The analyzer under test is tools/cbtree_tidy/cbtree_tidy.py.

  check_tidy.py --source-dir=<repo root>
"""

import argparse
import os
import re
import subprocess
import sys

FIXTURES = [
    ("cbtree-epoch-guard", "epoch_guard"),
    ("cbtree-version-validate", "version_validate"),
    ("cbtree-latch-wrapper", "latch_wrapper"),
    ("cbtree-obs-compile-out", "obs_compile_out"),
    ("cbtree-node-alloc", "node_alloc"),
    ("cbtree-wal-append", "wal_append"),
]

DIAG_RE = re.compile(r"^(.*):(\d+):(\d+): warning: .* \[([\w-]+)\]$")


def parse_expectations(path):
    expected = set()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            m = re.search(r"//\s*expect-diag:\s*([\w-]+)", line)
            if m:
                expected.add((os.path.basename(path), line_no, m.group(1)))
    return expected


def parse_diags(output):
    found = set()
    for line in output.splitlines():
        m = DIAG_RE.match(line.strip())
        if m:
            found.add((os.path.basename(m.group(1)), int(m.group(2)),
                       m.group(4)))
    return found


def run_python_engine(python, script, check, files):
    proc = subprocess.run(
        [python, script, "--quiet", "--checks=%s" % check] + files,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError("cbtree_tidy.py failed on %s: %s"
                           % (files, proc.stderr))
    return parse_diags(proc.stdout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--source-dir", required=True,
                        help="repository root")
    args = parser.parse_args()

    root = os.path.abspath(args.source_dir)
    script = os.path.join(root, "tools", "cbtree_tidy", "cbtree_tidy.py")
    fixture_dir = os.path.join(root, "tests", "tidy_fixtures")
    python = sys.executable

    failures = []

    for check, stem in FIXTURES:
        bad = os.path.join(fixture_dir, "%s_bad.cc" % stem)
        good = os.path.join(fixture_dir, "%s_good.cc" % stem)
        expected = parse_expectations(bad)
        if not expected:
            failures.append("%s: positive fixture has no expect-diag "
                            "markers" % bad)
            continue

        got_bad = run_python_engine(python, script, check, [bad])
        got_good = run_python_engine(python, script, check, [good])
        missed = expected - got_bad
        for f, line, name in sorted(missed):
            failures.append("[%s] seeded violation NOT diagnosed: %s:%d [%s]"
                            % (check, f, line, name))
        for f, line, name in sorted(got_bad - expected):
            failures.append("[%s] unexpected diagnostic: %s:%d [%s]"
                            % (check, f, line, name))
        for f, line, name in sorted(got_good):
            failures.append("[%s] negative fixture diagnosed: %s:%d [%s]"
                            % (check, f, line, name))
        print("fixtures %-28s: %d/%d seeded violations diagnosed"
              % (check, len(expected - missed), len(expected)))

    # Real sources must be clean under every check.
    def glob_sources(*rel_dirs):
        out = []
        for rel in rel_dirs:
            full = os.path.join(root, rel)
            for name in sorted(os.listdir(full)):
                if name.endswith((".cc", ".h")):
                    out.append(os.path.join(full, name))
        return out

    tree_files = glob_sources("src/ctree") + [
        os.path.join(root, "src", "base", "epoch.h"),
        os.path.join(root, "src", "base", "epoch.cc"),
    ]
    obs_scope = glob_sources("src/ctree", "src/net", "src/sim", "src/obs")
    wal_scope = glob_sources("src/wal", "src/ctree", "src/net")

    clean_suites = [("all checks over tree+epoch sources", "*", tree_files),
                    ("obs compile-out over ctree/net/sim/obs",
                     "cbtree-obs-compile-out", obs_scope),
                    ("wal-append over wal/ctree/net",
                     "cbtree-wal-append", wal_scope)]
    for label, checks, files in clean_suites:
        got = run_python_engine(python, script, checks, files)
        for f, line, name in sorted(got):
            failures.append("real source not clean: %s:%d [%s]"
                            % (f, line, name))
        print("clean    %-45s: %d file(s), %d finding(s)"
              % (label, len(files), len(got)))

    if failures:
        print("\nFAIL: %d problem(s)" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("\nPASS: all seeded violations diagnosed, real sources clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
