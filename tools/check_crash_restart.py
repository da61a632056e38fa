#!/usr/bin/env python3
"""Crash-restart durability check: SIGKILL a serving tree mid-load, restart
it on the same WAL directory, and verify zero acked-write loss.

Usage: check_crash_restart.py <cbtree-binary> [--protocol=...] [--fsync=...]
                              [--recovery=...] [--shards=N]

The harness speaks the binary wire protocol directly (little-endian,
length-prefixed: request = <I B Q q q>, response = <I B Q q>) so it can keep
its own per-key oracle: a write counts as acked only after its response
frame has been read off the socket. The server promises ack-after-durable,
so every acked write must survive a SIGKILL — the strongest crash a process
can take while the OS stays up.

Phases:
  1. serve --wal_dir=<fresh tmpdir>, parse the readiness line.
  2. N writer connections, each owning a disjoint key range, stream inserts
     and record (key, value) into the oracle as acks arrive.
  3. SIGKILL the server mid-stream (writers see ECONNRESET; whatever was
     sent-but-unacked is allowed to be lost, acked writes are not).
  4. Restart serve on the same --wal_dir; its recovery scan must succeed
     (replay line printed, CheckInvariants runs on the replayed tree), and
     its "(N torn bytes truncated)" banner must show less than one record
     frame per shard: a SIGKILL tears at most the frame in flight, while
     the preallocated zero tail past the written end is not torn at all.
  5. Search every oracle key over the wire: each must come back kFound with
     the exact acked value. Then SIGINT and require a clean drain (exit 0),
     which re-runs CheckAllInvariants server-side.
"""

import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

REQUEST = struct.Struct("<IBQqq")   # len, op, id, key, value
RESPONSE = struct.Struct("<IBQq")   # len, status, id, value
OP_SEARCH, OP_INSERT = 1, 2
RECORD_FRAME_SIZE = 33  # wal::kRecordFrameSize
ST_FOUND, ST_INSERTED, ST_UPDATED = 1, 3, 4
ST_REJECTED = 7


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_serve(binary, wal_dir, protocol, fsync, recovery, shards):
    proc = subprocess.Popen(
        [binary, "serve", f"--protocol={protocol}", "--port=0",
         "--items=2000", f"--shards={shards}",
         f"--wal_dir={wal_dir}", f"--fsync={fsync}",
         f"--recovery={recovery}", "--group_commit_us=100"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    port = None
    replayed = None
    torn = None
    deadline = time.time() + 20
    lines = []
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        replay_match = re.search(r"replayed (\d+) records", line)
        if replay_match:
            replayed = int(replay_match.group(1))
        torn_match = re.search(r"\((\d+) torn bytes truncated\)", line)
        if torn_match:
            torn = int(torn_match.group(1))
        port_match = re.search(r"listening on [\d.]+:(\d+)", line)
        if port_match:
            port = int(port_match.group(1))
            break
    if port is None:
        proc.kill()
        fail(f"serve never printed its port:\n{''.join(lines)}")
    return proc, port, replayed, torn


def recv_exact(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError("eof")
        data += chunk
    return data


class Writer(threading.Thread):
    """Streams inserts over one connection; self.acked is the oracle."""

    def __init__(self, port, key_base, count):
        super().__init__(daemon=True)
        self.port = port
        self.key_base = key_base
        self.count = count
        self.acked = {}   # key -> value, recorded only after the ack frame
        self.error = None

    def run(self):
        try:
            sock = socket.create_connection(("127.0.0.1", self.port),
                                            timeout=10)
            sock.settimeout(10)
            for i in range(self.count):
                key = self.key_base + i
                value = key * 3 + 1
                sock.sendall(REQUEST.pack(25, OP_INSERT, i, key, value))
                # Strict request/response lockstep: nothing is in flight
                # when the ack is recorded, so the oracle's contents are
                # exactly the acked writes at SIGKILL time.
                _, status, _, _ = RESPONSE.unpack(
                    recv_exact(sock, RESPONSE.size))
                if status in (ST_INSERTED, ST_UPDATED):
                    self.acked[key] = value
                elif status != ST_REJECTED:
                    raise AssertionError(f"unexpected status {status}")
        except (ConnectionError, OSError):
            pass  # the SIGKILL arrives mid-stream by design
        except AssertionError as err:
            self.error = str(err)


def main():
    if len(sys.argv) < 2:
        fail("usage: check_crash_restart.py <cbtree-binary> [flags...]")
    binary = sys.argv[1]
    protocol, fsync, recovery, shards = "olc", "data", "leaf", "1"
    for flag in sys.argv[2:]:
        name, _, value = flag.partition("=")
        if name == "--protocol":
            protocol = value
        elif name == "--fsync":
            fsync = value
        elif name == "--recovery":
            recovery = value
        elif name == "--shards":
            shards = value
        else:
            fail(f"unknown flag {flag}")

    with tempfile.TemporaryDirectory(prefix="cbtree_crash_") as wal_dir:
        serve, port, _, _ = start_serve(binary, wal_dir, protocol, fsync,
                                        recovery, shards)

        # Disjoint per-connection key ranges, far above the preload key
        # space (1..2*items), so the oracle owns its keys exclusively.
        writers = [Writer(port, 10_000_000 + c * 1_000_000, 100_000)
                   for c in range(4)]
        for writer in writers:
            writer.start()

        # Let acks accumulate, then SIGKILL mid-stream: the writers are
        # pipelining more inserts at this instant.
        deadline = time.time() + 10
        while time.time() < deadline:
            if sum(len(w.acked) for w in writers) >= 2000:
                break
            time.sleep(0.02)
        serve.send_signal(signal.SIGKILL)
        serve.wait()
        for writer in writers:
            writer.join(timeout=15)
            if writer.error:
                fail(f"writer protocol error: {writer.error}")

        oracle = {}
        for writer in writers:
            oracle.update(writer.acked)
        if len(oracle) < 100:
            fail(f"only {len(oracle)} acked writes before the kill; "
                 "the harness raced the load, nothing was tested")

        # Restart on the same WAL directory: recovery must replay at least
        # every acked write (preload + acked inserts + torn-tail slack).
        serve2, port2, replayed, torn = start_serve(
            binary, wal_dir, protocol, fsync, recovery, shards)
        try:
            if replayed is None:
                fail("restarted serve printed no replay line")
            if replayed < len(oracle):
                fail(f"replayed {replayed} records < {len(oracle)} acked")
            if torn is None:
                fail("restarted serve printed no torn-bytes banner")
            torn_limit = int(shards) * RECORD_FRAME_SIZE
            if torn >= torn_limit:
                fail(f"recovery truncated {torn} torn bytes; a SIGKILL tears "
                     f"less than one {RECORD_FRAME_SIZE}-byte frame per "
                     f"shard (< {torn_limit})")

            sock = socket.create_connection(("127.0.0.1", port2), timeout=10)
            sock.settimeout(10)
            lost, wrong = [], []
            for i, (key, value) in enumerate(sorted(oracle.items())):
                sock.sendall(REQUEST.pack(25, OP_SEARCH, i, key, 0))
                _, status, _, got = RESPONSE.unpack(
                    recv_exact(sock, RESPONSE.size))
                if status != ST_FOUND:
                    lost.append(key)
                elif got != value:
                    wrong.append((key, value, got))
            sock.close()
            if lost:
                fail(f"{len(lost)} acked writes lost after crash-restart "
                     f"(first: {lost[:5]})")
            if wrong:
                fail(f"{len(wrong)} acked writes corrupted "
                     f"(first: {wrong[:3]})")

            # Clean drain re-runs CheckAllInvariants on the replayed tree.
            serve2.send_signal(signal.SIGINT)
            try:
                serve2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                serve2.kill()
                fail("restarted serve did not drain within 30s of SIGINT")
            tail = serve2.stdout.read()
            if serve2.returncode != 0:
                fail(f"restarted serve exited {serve2.returncode}:\n{tail}")
            print(f"OK: {protocol} fsync={fsync} recovery={recovery} "
                  f"shards={shards}: {len(oracle)} acked writes survived "
                  f"SIGKILL (replayed {replayed} records, {torn} torn "
                  f"bytes)")
        finally:
            if serve2.poll() is None:
                serve2.kill()


if __name__ == "__main__":
    main()
