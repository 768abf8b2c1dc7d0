"""The ``repro serve`` asyncio batch server.

Protocol: newline-delimited JSON over TCP, one request object per line,
one reply object per line, answered in request order per connection::

    {"op": "neighbors", "user": 12}
    {"op": "recommend", "user": 12, "top_n": 5}
    {"op": "stats"}
    {"op": "rebalance", "shards": 4, "moves": [[12, 0]]}

Replies carry ``"ok"`` plus either the payload or an ``"error"``
string; every data reply is stamped with the graph ``version`` it was
computed from::

    {"ok": true, "op": "neighbors", "user": 12, "version": 87,
     "neighbors": [3, 9], "sims": [0.81, 0.77]}

Batching: every connection feeds a shared queue; a single dispatcher
drains whatever requests are waiting into one micro-batch, pins **one**
snapshot, and answers the whole batch against it.  Pipelined bursts
(many lines in one TCP write) therefore coalesce into a handful of
pins, every reply in a batch reports the same version, and readers
never block on the writer thread running ``apply()``/``refresh()``
concurrently — the snapshot swap is the only synchronisation point.
The ``rebalance`` admin op is the one request that mutates the index;
it migrates on an executor thread, so a migration waiting for the
writer never stalls the readers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading

from .recommend import Recommender
from .snapshot import GraphSnapshot

__all__ = ["KnnServer"]


class KnnServer:
    """Serve an index's snapshots over newline-delimited JSON TCP.

    Usage (the CLI's ``repro serve`` wraps exactly this)::

        server = KnnServer(index, host="127.0.0.1", port=0)
        await server.start()
        host, port = server.address
        ...
        await server.stop()

    ``stop()`` shuts the listener and dispatcher down but does **not**
    close the index — the caller owns its lifecycle (and is expected to
    ``index.close()`` in a ``finally``).
    """

    def __init__(
        self,
        index,
        host: str = "127.0.0.1",
        port: int = 0,
        top_n: int = 10,
        min_neighbor_rating: float = 3.5,
        max_batch: int = 256,
        scheduler=None,
        mutate_lock=None,
    ):
        self.index = index
        #: Optional :class:`~repro.scheduling.RefreshScheduler` driving
        #: the index's refreshes; when given, the ``stats`` op folds its
        #: state in (queue depth, deferred users, backpressure tallies)
        #: and the ``rebalance`` op routes through its queue bound.
        self.scheduler = scheduler
        #: Optional :class:`threading.Lock` shared with whatever thread
        #: mutates the index (the CLI's ingest writer); the
        #: ``rebalance`` admin op acquires it so a live migration never
        #: interleaves with a concurrent ``apply()``/``refresh()``.
        self.mutate_lock = mutate_lock
        #: Serialises migrations when no ``mutate_lock`` is shared.
        self._rebalance_lock = threading.Lock()
        #: Migrations running on executor threads (awaited by ``stop``).
        self._migrations: set[asyncio.Future] = set()
        self.recommender = Recommender(
            index, top_n=top_n, min_neighbor_rating=min_neighbor_rating
        )
        self.host = host
        self.port = int(port)
        self.max_batch = int(max_batch)
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        #: Served-traffic accounting (exposed by the ``stats`` op).
        self.requests = 0
        self.batches = 0
        self.max_batch_seen = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemera)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "KnnServer":
        """Bind the listener and start the dispatcher task."""
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Stop accepting and answering; idempotent.

        Waits for in-flight migrations: a thread cannot be cancelled,
        and the caller closes the index once ``stop()`` returns.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        if self._migrations:
            await asyncio.gather(*self._migrations, return_exceptions=True)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until *stop* is set, then shut down."""
        await stop.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling: reader enqueues, per-connection writer
    # preserves reply order, the shared dispatcher batches.
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        replies: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_replies(replies, writer))
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                future = loop.create_future()
                await self._queue.put((stripped, future))
                await replies.put(future)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await replies.put(None)
            with contextlib.suppress(Exception):
                await writer_task
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write_replies(self, replies: asyncio.Queue, writer) -> None:
        while True:
            future = await replies.get()
            if future is None:
                return
            payload = await future
            try:
                writer.write(payload + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return  # client went away; drop the remaining replies

    # ------------------------------------------------------------------
    # Batched dispatch: one snapshot pin per micro-batch.
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._serve_batch(batch)
            # Yield so connection readers refill the queue before the
            # next drain — that's what turns bursts into batches.
            await asyncio.sleep(0)

    def _serve_batch(self, batch) -> None:
        self.batches += 1
        self.requests += len(batch)
        self.max_batch_seen = max(self.max_batch_seen, len(batch))
        try:
            snapshot = self.recommender.pin()
        except RuntimeError as error:
            payload = _encode({"ok": False, "error": str(error)})
            for _, future in batch:
                if not future.done():
                    future.set_result(payload)
            return
        for raw, future in batch:
            if future.done():
                continue
            reply = self._answer(raw, snapshot)
            if isinstance(reply, bytes):
                future.set_result(reply)
            else:
                self._start_rebalance(reply, future)

    def _answer(self, raw: bytes, snapshot: GraphSnapshot):
        """The encoded reply to one request, or a ``rebalance``'s plan.

        A valid ``rebalance`` request is not answered here: its
        :class:`~repro.streaming.sharding.ShardPlan` goes back to
        :meth:`_serve_batch`, which runs it off the event loop.
        """
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError(
                    f"request must be a JSON object, got "
                    f"{type(request).__name__}"
                )
            op = request.get("op")
            if op == "neighbors":
                reply = self.recommender.neighbors(
                    request["user"], snapshot=snapshot
                )
                body = {
                    "ok": True,
                    "op": op,
                    "user": reply.user,
                    "version": reply.version,
                    "neighbors": list(reply.neighbors),
                    "sims": list(reply.sims),
                }
            elif op == "recommend":
                reply = self.recommender.recommend(
                    request["user"],
                    top_n=request.get("top_n"),
                    snapshot=snapshot,
                )
                body = {
                    "ok": True,
                    "op": op,
                    "user": reply.user,
                    "version": reply.version,
                    "items": list(reply.items),
                    "scores": list(reply.scores),
                }
            elif op == "stats":
                # Staleness is observable end-to-end: the reply carries
                # the batch's pinned snapshot version, the index's
                # latest applied (WAL-aligned) sequence, and their gap —
                # how many journaled events this snapshot has not seen.
                last_seq = self.index.last_seq
                body = {
                    "ok": True,
                    "op": op,
                    "version": snapshot.version,
                    "last_seq": last_seq,
                    "snapshot_lag": last_seq - snapshot.version,
                    "dirty_users": len(self.index.dirty_users),
                    "n_users": snapshot.n_users,
                    "k": snapshot.k,
                    "requests": self.requests,
                    "batches": self.batches,
                    "max_batch": self.max_batch_seen,
                    "memory": {
                        key: int(value)
                        for key, value in self.index.memory_stats().items()
                    },
                    "sharding": {
                        "n_shards": int(self.index.n_shards),
                        "executor": self.index.executor,
                        "overrides": len(self.index.shard_map.overrides),
                        "rebalances": len(self.index.rebalance_log),
                    },
                }
                if self.scheduler is not None:
                    body["scheduler"] = self.scheduler.stats()
            elif op == "rebalance":
                return _shard_plan(request)
            else:
                raise ValueError(
                    f"unknown op {op!r}; expected 'neighbors', "
                    f"'recommend', 'stats' or 'rebalance'"
                )
        except Exception as error:
            return _failed(error)
        return _encode(body)

    def _start_rebalance(self, plan, future: asyncio.Future) -> None:
        """Run *plan* on an executor thread; its reply resolves *future*.

        The migration waits for :attr:`mutate_lock` there, so the
        dispatcher keeps answering reads from pinned snapshots while a
        writer holds the lock.
        """
        migration = asyncio.get_running_loop().run_in_executor(
            None, self._rebalance, plan
        )
        self._migrations.add(migration)

        def reply(done: asyncio.Future) -> None:
            self._migrations.discard(done)
            if done.cancelled() or future.done():
                return
            error = done.exception()
            future.set_result(
                _encode(done.result()) if error is None else _failed(error)
            )

        migration.add_done_callback(reply)

    def _rebalance(self, plan) -> dict:
        """Apply one ``rebalance`` admin op (live shard migration).

        Runs on an executor thread.  The migration holds
        :attr:`mutate_lock` (or, when none is shared, a server-private
        lock that keeps concurrent rebalance ops apart) and goes through
        the scheduler's queue bound when one is attached, so a live
        trigger composes with concurrent ingestion exactly like the
        in-process :meth:`~repro.streaming.DynamicKnnIndex.rebalance`
        API.
        """
        lock = (
            self._rebalance_lock
            if self.mutate_lock is None
            else self.mutate_lock
        )
        with lock:
            if self.scheduler is not None:
                stats = self.scheduler.rebalance(plan)
            else:
                stats = self.index.rebalance(plan)
        return {
            "ok": True,
            "op": "rebalance",
            "users_moved": stats.users_moved,
            "shards_before": stats.shards_before,
            "shards_after": stats.shards_after,
            "seq_begin": stats.seq_begin,
            "seq_commit": stats.seq_commit,
            "wall_time": stats.wall_time,
        }


def _shard_plan(request: dict):
    """The :class:`ShardPlan` of a ``rebalance`` request.

    The request carries ``"shards"`` (target shard count) and/or
    ``"moves"`` (``[[user, shard], ...]`` override pairs).
    """
    from ..streaming.sharding import ShardPlan

    shards = request.get("shards")
    return ShardPlan(
        moves=tuple(
            (int(user), int(shard))
            for user, shard in (request.get("moves") or ())
        ),
        n_shards=None if shards is None else int(shards),
    )


def _encode(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def _failed(error: Exception) -> bytes:
    return _encode({"ok": False, "error": f"{type(error).__name__}: {error}"})
