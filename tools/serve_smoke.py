#!/usr/bin/env python3
"""End-to-end smoke test of `plimc --serve`.

Spawns the daemon, then drives the JSON-lines protocol the way a build
farm would:

  1. ping over stdin and over a Unix socket (both transports must serve
     the same protocol), then a 1 MiB request line without a newline on
     the socket: it must get one `request-too-large` error, and a ping
     after the next newline must still answer on that connection; then
     200 connect/ping/close cycles on the socket must not grow the
     daemon's VmSize by more than 64 MiB (finished connection readers
     are joined, not parked with their stacks mapped); then 64 idle
     clients fill the connection cap: a 65th must get one
     `too-many-connections` error, and once one of the 64 closes a new
     client must be served again;
  2. wave 1 — the six EPFL smoke benchmarks fired back-to-back (the
     worker pool compiles them concurrently), all cold;
  3. wave 2 — the same six again: at least 50% of the repeated half
     must come back `cache: hit`, and every repeated report must be
     byte-identical to its wave-1 counterpart (the cache must never
     change an answer, only its latency);
  4. `stats` — requests counted, hit rate consistent, evictions
     reported, p50/p99 valid;
  5. SIGINT — the daemon must drain gracefully and exit 0;
  6. a second daemon on `--listen 0`: the port it announces on stderr
     must answer a ping and a compile over 127.0.0.1, and SIGINT must
     drain it to exit 0.

Usage: serve_smoke.py [path/to/plimc]  (default: ./build/plimc)
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

BENCHMARKS = ["ctrl", "cavlc", "int2float", "router", "dec", "priority"]
CHURN_CYCLES = 200
CHURN_VMSIZE_BOUND_MIB = 64
CONNECTION_CAP = 64


def fail(message):
    print(f"serve_smoke: FAIL: {message}")
    sys.exit(1)


def send(proc, obj):
    proc.stdin.write(json.dumps(obj) + "\n")
    proc.stdin.flush()


def read_responses(proc, count, timeout_s=120):
    """Reads `count` response lines, keyed by id (responses may arrive in
    any order — the worker pool answers as compiles finish)."""
    responses = {}
    deadline = time.monotonic() + timeout_s
    while len(responses) < count:
        if time.monotonic() > deadline:
            fail(f"timed out waiting for responses "
                 f"({len(responses)}/{count} received)")
        line = proc.stdout.readline()
        if not line:
            fail("daemon closed stdout early")
        response = json.loads(line)
        responses[response.get("id", "")] = response
    return responses


def recv_lines(sock, count):
    """Reads from `sock` until `count` complete lines have arrived."""
    buffer = b""
    sock.settimeout(60)
    while buffer.count(b"\n") < count:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            fail(f"timed out waiting for {count} line(s) on the socket")
        if not chunk:
            fail("socket closed early")
        buffer += chunk
    return [json.loads(line) for line in buffer.splitlines()]


def ping_socket(socket_path):
    """Connects, pings and returns the first reply line, or None when the
    daemon hung up without one."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60)
        sock.connect(socket_path)
        try:
            sock.sendall(b'{"cmd":"ping","id":"cap"}\n')
        except BrokenPipeError:
            pass  # refused: the error line may still be readable
        buffer = b""
        try:
            while b"\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    return None
                buffer += chunk
        except OSError:
            return None
        return json.loads(buffer.split(b"\n")[0])


def vm_size_kib(pid):
    """The process's VmSize from /proc, or None where /proc is absent."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def interrupt_and_wait(proc, what):
    """SIGINT `proc` and require a graceful exit 0 within 60 s."""
    proc.send_signal(signal.SIGINT)
    try:
        rc = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        fail(f"{what} did not exit within 60s of SIGINT")
    if rc != 0:
        fail(f"{what} exited {rc} after SIGINT (want 0)")


def tcp_leg(plimc):
    """`--listen 0`: parse the OS-assigned port from the stderr
    announcement, ping and compile over loopback TCP, then drain."""
    proc = subprocess.Popen(
        [plimc, "--serve", "--threads", "1", "--listen", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    try:
        port = None
        deadline = time.monotonic() + 30
        while port is None:
            if time.monotonic() > deadline:
                fail("no tcp port announced on stderr")
            line = proc.stderr.readline()
            if not line:
                fail("daemon closed stderr before announcing a tcp port")
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(b'{"cmd":"ping","id":"tcp"}\n'
                         b'{"id":"tcp-c","benchmark":"ctrl"}\n')
            by_id = {r.get("id"): r for r in recv_lines(sock, 2)}
        if not by_id.get("tcp", {}).get("pong"):
            fail(f"bad tcp pong: {by_id}")
        if not by_id.get("tcp-c", {}).get("ok"):
            fail(f"tcp compile failed: {by_id.get('tcp-c')}")
        interrupt_and_wait(proc, "tcp daemon")
        print(f"serve_smoke: tcp listener on port {port} answered a ping "
              "and a compile")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    plimc = sys.argv[1] if len(sys.argv) > 1 else "./build/plimc"
    socket_path = os.path.join(tempfile.mkdtemp(prefix="plim_serve_"),
                               "plimc.sock")
    proc = subprocess.Popen(
        [plimc, "--serve", "--banks", "4", "--threads", "4",
         "--socket", socket_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        # 1. liveness on both transports
        send(proc, {"cmd": "ping", "id": "ping"})
        pong = read_responses(proc, 1)["ping"]
        if not (pong.get("ok") and pong.get("pong")):
            fail(f"bad pong: {pong}")

        deadline = time.monotonic() + 30
        while not os.path.exists(socket_path):
            if time.monotonic() > deadline:
                fail("unix socket never appeared")
            time.sleep(0.05)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(socket_path)
            sock.sendall(b'{"cmd":"ping","id":"sock"}\n'
                         b'{"id":"sock-c","benchmark":"ctrl"}\n')
            sock_lines = recv_lines(sock, 2)
        by_id = {r.get("id"): r for r in sock_lines}
        if not by_id.get("sock", {}).get("pong"):
            fail(f"bad socket pong: {sock_lines}")
        if not by_id.get("sock-c", {}).get("ok"):
            fail(f"socket compile failed: {by_id.get('sock-c')}")

        # An unterminated 1 MiB line: one error, no unbounded buffering,
        # and the connection keeps serving after the next newline.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(socket_path)
            sock.sendall(b"x" * (1 << 20))
            too_large = recv_lines(sock, 1)
            if (len(too_large) != 1 or too_large[0].get("ok") is not False
                    or too_large[0].get("error", {}).get("code")
                    != "request-too-large"):
                fail(f"oversized line not rejected: {too_large}")
            sock.sendall(b'\n{"cmd":"ping","id":"after-big"}\n')
            after = recv_lines(sock, 1)
            if len(after) != 1 or not (after[0].get("id") == "after-big"
                                       and after[0].get("pong")):
                fail(f"no pong after an oversized line: {after}")

        # Connection churn: each closed connection's reader thread must
        # be joined, or its stack stays mapped until shutdown. A few
        # overlapping clients first, so the malloc arenas concurrent
        # readers map once are in place before the baseline is read.
        overlapping = []
        for k in range(4):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            sock.sendall(b'{"cmd":"ping","id":"overlap"}\n')
            overlapping.append(sock)
        for sock in overlapping:
            recv_lines(sock, 1)
            sock.close()
        vm_before = vm_size_kib(proc.pid)
        for cycle in range(CHURN_CYCLES):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(socket_path)
                sock.sendall(b'{"cmd":"ping","id":"churn"}\n')
                churn = recv_lines(sock, 1)
            if not churn[0].get("pong"):
                fail(f"churn cycle {cycle}: bad pong {churn}")
        vm_after = vm_size_kib(proc.pid)
        if vm_before is None or vm_after is None:
            print("serve_smoke: note: no /proc VmSize, churn bound skipped")
        elif vm_after - vm_before > CHURN_VMSIZE_BOUND_MIB * 1024:
            fail(f"{CHURN_CYCLES} connect/ping/close cycles grew VmSize "
                 f"from {vm_before // 1024} to {vm_after // 1024} MiB "
                 f"(bound +{CHURN_VMSIZE_BOUND_MIB} MiB)")
        else:
            print(f"serve_smoke: {CHURN_CYCLES} connection cycles, VmSize "
                  f"{vm_before // 1024} -> {vm_after // 1024} MiB")

        # Connection cap: once the churn's readers have wound down, 64
        # idle clients fill it, a 65th gets one `too-many-connections`
        # error, and after one of the 64 closes a new client is served
        # (retried while the closed connection's reader winds down).
        time.sleep(0.5)
        idle = []
        for k in range(CONNECTION_CAP):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            sock.sendall(b'{"cmd":"ping","id":"idle"}\n')
            if not recv_lines(sock, 1)[0].get("pong"):
                fail(f"idle client {k} was not served under the cap")
            idle.append(sock)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(socket_path)
            refused = recv_lines(sock, 1)
        if refused[0].get("error", {}).get("code") != "too-many-connections":
            fail(f"client {CONNECTION_CAP + 1} not refused: {refused}")
        idle.pop().close()
        for attempt in range(20):
            reply = ping_socket(socket_path)
            if reply is not None and reply.get("pong"):
                break
            time.sleep(0.1)
        else:
            fail(f"no client served after one of {CONNECTION_CAP} closed: "
                 f"{reply}")
        for sock in idle:
            sock.close()
        print(f"serve_smoke: client {CONNECTION_CAP + 1} refused, "
              "served again after one closed")

        # 2. wave 1: all six benchmarks, fired before reading anything —
        # the worker pool runs them concurrently.
        for name in BENCHMARKS:
            send(proc, {"id": f"w1-{name}", "benchmark": name})
        wave1 = read_responses(proc, len(BENCHMARKS))
        for name in BENCHMARKS:
            response = wave1[f"w1-{name}"]
            if not response.get("ok"):
                fail(f"wave-1 compile of {name} failed: {response}")
            if "report" not in response:
                fail(f"wave-1 response for {name} carries no report")

        # 3. wave 2: the same six again. ≥50% must hit, and every report
        # must be byte-identical to wave 1's.
        for name in BENCHMARKS:
            send(proc, {"id": f"w2-{name}", "benchmark": name})
        wave2 = read_responses(proc, len(BENCHMARKS))
        hits = 0
        for name in BENCHMARKS:
            first = wave1[f"w1-{name}"]
            second = wave2[f"w2-{name}"]
            if not second.get("ok"):
                fail(f"wave-2 compile of {name} failed: {second}")
            if second.get("cache") == "hit":
                hits += 1
            a = json.dumps(first["report"], sort_keys=True)
            b = json.dumps(second["report"], sort_keys=True)
            if a != b:
                fail(f"cached report for {name} differs from the fresh one")
        if hits < len(BENCHMARKS) / 2:
            fail(f"repeated wave hit only {hits}/{len(BENCHMARKS)} "
                 "(need >= 50%)")

        # 4. server stats: counters and latency percentiles must be sane.
        send(proc, {"cmd": "stats", "id": "stats"})
        server = read_responses(proc, 1)["stats"]["server"]
        expected = 2 * len(BENCHMARKS) + 1  # waves + the socket compile
        if server["requests"] != expected:
            fail(f"stats counted {server['requests']} requests, "
                 f"expected {expected}")
        if server["cache_hits"] < hits:
            fail(f"stats hit count {server['cache_hits']} < observed {hits}")
        evictions = server.get("cache_evictions")
        if not isinstance(evictions, int) or evictions < 0:
            fail(f"stats reports no eviction count: {server}")
        if not (server["p50_ms"] > 0 and server["p99_ms"] >= server["p50_ms"]):
            fail(f"invalid latency percentiles: p50 {server['p50_ms']}, "
                 f"p99 {server['p99_ms']}")

        # 5. graceful shutdown on SIGINT: drain and exit 0.
        interrupt_and_wait(proc, "daemon")

        print(f"serve_smoke: OK — {expected} requests, {hits}/"
              f"{len(BENCHMARKS)} repeat hits, p50 "
              f"{server['p50_ms']:.3f} ms, p99 {server['p99_ms']:.3f} ms, "
              "graceful SIGINT exit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # 6. the loopback TCP listener, on a daemon of its own.
    tcp_leg(plimc)


if __name__ == "__main__":
    main()
