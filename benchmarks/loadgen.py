"""Closed-loop load generator for the serve workload.

Usage: loadgen.py POOL HOST PORT CLIENTS

POOL is a pickle of (frames, expected replies) written by run.py. For each
line on stdin, CLIENTS threads send every frame of the pool once, one
connection per frame, each thread waiting for its reply before it sends
its next frame. One JSON line per pass goes to stdout: the pass's start
and end (perf_counter_ns), and per frame the latency, connect and
exchange times in seconds (null when the request failed) and whether the
reply equals the expected bytes.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import sys
import threading
import time

RESP_HEADER = struct.Struct("<4sBBH")
# The client closes each connection once it has the reply. A plain close
# leaves the client port in TIME_WAIT for 60 s; at several hundred
# connections a second the ephemeral ports fill up and connect() slows
# from run to run. Closing with a reset leaves none.
ABORT_ON_CLOSE = struct.pack("ii", 1, 0)


def recv_exact(sock, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def run_pass(frames, expected, endpoint, clients: int) -> dict:
    n = len(frames)
    latency, connect, exchange = [None] * n, [None] * n, [None] * n
    match = [False] * n
    errors = []
    lock = threading.Lock()
    cursor = [0]

    def client():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            t0 = time.perf_counter()
            try:
                with socket.create_connection(endpoint, timeout=30) as sock:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, ABORT_ON_CLOSE)
                    t1 = time.perf_counter()
                    sock.sendall(frames[i])
                    header = recv_exact(sock, RESP_HEADER.size)
                    reply = header + recv_exact(sock, 4 * RESP_HEADER.unpack(header)[3])
                    t2 = time.perf_counter()
            except OSError as exc:
                errors.append(repr(exc))
                continue
            latency[i], connect[i], exchange[i] = t2 - t0, t1 - t0, t2 - t1
            match[i] = reply == expected[i]

    start_ns = time.perf_counter_ns()
    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end_ns = time.perf_counter_ns()
    return {"window": [start_ns, end_ns], "latency": latency, "connect": connect,
            "exchange": exchange, "match": match, "errors": errors[:3]}


def main() -> int:
    pool_path, host, port, clients = sys.argv[1:]
    with open(pool_path, "rb") as fh:
        frames, expected = pickle.load(fh)
    for _ in sys.stdin:
        result = run_pass(frames, expected, (host, int(port)), int(clients))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
