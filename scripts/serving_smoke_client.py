"""Mixed-batch smoke client for a running ``repro serve`` instance.

Usage::

    python scripts/serving_smoke_client.py PORT [HOST [K]]

Sends a pipelined batch of ``neighbors``/``recommend``/``stats``
requests (plus one deliberately bad op) over one TCP connection,
asserts every data reply is ok and version-stamped and that the bad op
gets an error envelope, and that no ``neighbors`` reply holds more
than the ``k`` the ``stats`` reply reports — the index keeps reserve
columns beyond ``k`` that must never reach a client.  Every
``neighbors`` reply must also hold distinct ids, not the user's own,
with non-increasing similarities.  With *K* (the
``k`` the server was started with) the reported ``k`` must equal it.
It then moves user 0 to shard 1 with a live
``rebalance`` op (the server must run at least 2 shards) and asserts
one more ``neighbors`` batch is answered after the flip.  Prints a
one-line summary and exits non-zero on any protocol violation — CI's
serving smoke job runs this while the server is mid-ingestion.
"""

import json
import socket
import sys


def exchange(stream, conn, requests) -> list[dict]:
    """Send *requests* pipelined; return their replies in order."""
    payload = "".join(json.dumps(request) + "\n" for request in requests)
    conn.sendall(payload.encode())
    return [json.loads(stream.readline()) for _ in requests]


def main() -> int:
    port = int(sys.argv[1])
    host = sys.argv[2] if len(sys.argv) > 2 else "127.0.0.1"
    served_k = int(sys.argv[3]) if len(sys.argv) > 3 else None
    neighbors = [{"op": "neighbors", "user": user} for user in range(8)]
    requests = (
        neighbors
        + [{"op": "recommend", "user": user, "top_n": 5} for user in range(8)]
        + [{"op": "stats"}, {"op": "bogus"}]
    )
    with socket.create_connection((host, port), timeout=30) as conn:
        with conn.makefile("r") as stream:
            replies = exchange(stream, conn, requests)
            (moved,) = exchange(
                stream, conn, [{"op": "rebalance", "moves": [[0, 1]]}]
            )
            after = exchange(stream, conn, neighbors)
    data, bad = replies[:-1], replies[-1]
    assert all(reply["ok"] for reply in data), data
    assert not bad["ok"] and "unknown op" in bad["error"], bad
    assert moved["ok"] and moved["users_moved"] == 1, moved
    assert all(reply["ok"] for reply in after), after
    versions = sorted({reply["version"] for reply in data[:-1] + after})
    stats = data[-1]
    assert served_k is None or stats["k"] == served_k, stats
    for reply in data[:8] + after:
        ids, sims = reply["neighbors"], reply["sims"]
        assert len(ids) <= stats["k"], reply
        assert len(set(ids)) == len(ids) == len(sims), reply
        assert reply["user"] not in ids, reply
        assert all(a >= b for a, b in zip(sims, sims[1:])), reply
    print(
        f"answered {len(replies) + 1 + len(after)} requests at version(s) "
        f"{versions}, one live rebalance (seq {moved['seq_commit']}); "
        f"server totals before it: {stats['requests']} requests in "
        f"{stats['batches']} batches (max batch {stats['max_batch']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
