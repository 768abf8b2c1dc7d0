"""Open-loop read generator for the serve-live workload.

Runs as its own process so its work never shares the server's
interpreter lock.  It opens one TCP connection to a ``KnnServer``,
waits for the agreed start time, then sends requests on a seeded
Poisson schedule, alternating ``neighbors`` and ``recommend`` for
seeded users.  A second thread reads the replies, which the server
returns in request order.  Each request is timed from its due time,
not its send time, so a stalled server also delays the requests queued
behind the stall.

Usage (the benchmark starts it; the arguments are positional)::

    python3 perfbench/reader.py HOST PORT SEED N_USERS RATE DURATION

Once connected it prints ``ready`` and reads the start instant from
standard input: a ``time.perf_counter()`` value, which is the
system-wide monotonic clock on Linux, so the parent and this process
agree on it.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import numpy as np

#: Replies kept whole for the parent's cold recomputation check.
SAMPLE_EVERY = 97
#: Seconds to wait for outstanding replies once sending stops.
REPLY_GRACE = 20.0


def schedule(start: float, duration: float, rate: float, seed: int,
             n_users: int):
    """Due times, ops and users of every request in the window."""
    rng = np.random.default_rng(seed)
    n_max = int(rate * duration * 2) + 64
    due = start + np.cumsum(rng.exponential(1.0 / rate, size=n_max))
    due = due[due < start + duration]
    users = rng.integers(0, n_users, size=due.size)
    return due, users


def main() -> int:
    host, port = sys.argv[1], int(sys.argv[2])
    seed, n_users = int(sys.argv[3]), int(sys.argv[4])
    rate, duration = float(sys.argv[5]), float(sys.argv[6])
    conn = socket.create_connection((host, port), timeout=REPLY_GRACE + 30)
    stream = conn.makefile("rb")
    print("ready", flush=True)
    start = float(sys.stdin.readline())
    due, users = schedule(start, duration, rate, seed, n_users)
    n = due.size
    sent = np.zeros(n)
    received = np.full(n, np.nan)
    samples: list[dict] = []
    errors: list[str] = []

    def receive() -> None:
        try:
            for pos in range(n):
                line = stream.readline()
                if not line:
                    errors.append(f"connection closed after {pos} replies")
                    return
                received[pos] = time.perf_counter()
                if pos % SAMPLE_EVERY == 0:
                    samples.append({"pos": pos, "reply": json.loads(line)})
                elif b'"ok":true' not in line:
                    errors.append(line.decode("utf-8", "replace")[:200])
        except OSError as error:
            errors.append(f"receive failed: {error}")

    receiver = threading.Thread(target=receive, name="reader-recv")
    receiver.start()
    try:
        for pos in range(n):
            op = "neighbors" if pos % 2 == 0 else "recommend"
            line = json.dumps({"op": op, "user": int(users[pos])}) + "\n"
            delay = due[pos] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[pos] = time.perf_counter()
            conn.sendall(line.encode("utf-8"))
    finally:
        receiver.join(timeout=REPLY_GRACE)
        if receiver.is_alive():
            errors.append("replies still outstanding after the grace period")
            try:
                conn.shutdown(socket.SHUT_RDWR)  # unblocks the reader
            except OSError:
                pass
            receiver.join()
        stream.close()
        conn.close()
    answered = ~np.isnan(received)
    json.dump(
        {
            "attempted": int(n),
            "answered": int(answered.sum()),
            "errors": errors[:20],
            "n_errors": len(errors),
            "latency_s": (received[answered] - due[answered]).tolist(),
            "late_s": (sent - due).tolist(),
            "samples": samples,
            "users": users.tolist(),
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
