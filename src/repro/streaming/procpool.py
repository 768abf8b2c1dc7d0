"""The ``processes`` transport: persistent shard workers over shared memory.

A :class:`~repro.streaming.index.DynamicKnnIndex` built with
``executor="processes"`` sends its refresh stage calls to one OS
process per shard, so the Python-level plan/merge work — GIL-serialized
under the thread executor — runs truly in parallel.  A worker holds one
:class:`~repro.streaming.sharding._Shard` and runs exactly the stage
methods the in-process executors call; this module only carries the
calls.  The division of state:

* **Parent (authoritative)** — the mutable rating builder, the WAL, the
  dirty set and its lost-item records (stage A's request carries the
  selected users' lost items), the graph rows, the engine's
  :class:`ProfileIndex`.
* **Worker (owned slice)** — a mirror of the graph rows it owns and of
  their exact depths (full-size arrays; only owned rows are ever read
  or written), from which its stage A finds its referrers, and the
  candidacy of the last snapshot it attached (the pass's scoring rule
  and candidacy transpose, built once per pass in each worker and held
  until the next ``attach``; the parent builds none).
* **Shared memory** — the read-only per-refresh state (snapshot CSR
  triplet + profile arrays), published by the parent into an
  :class:`~repro.streaming.shm.ShmArena` and rebuilt as zero-copy numpy
  views in every worker.

Protocol (one duplex pipe per worker):

* ``(req_id, kind, args)`` — one request per round: ``attach`` (map the
  published arrays, build their candidacy and grow the row mirror to
  the current population), then the stages ``affected`` / ``plan`` /
  ``merge``, each answered by calling the worker's shard with *args*;
  the worker replies ``(req_id, "ok", result)`` or
  ``(req_id, "error", exception)``.  Replies are matched by ``req_id``
  so an aborted pass's stale replies are drained, not misread.
* ``("stop",)`` — orderly shutdown.

Crash safety: the parent applies nothing until every worker has
answered the final stage, so a worker death at any point leaves the
authoritative state untouched.  The pool is then reset and respawned —
each worker reseeded from the authoritative rows — and the pass reruns.
A worker keeps no state between passes that the parent does not hold,
so a respawned worker needs no replay, and bit-identical parity
survives any kill point.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import weakref

import numpy as np

from ..layout import ID_DTYPE, SCORE_DTYPE
from ..similarity.base import ProfileIndex
from .index import _ShardHost
from .sharding import _Shard, pass_candidacy
from .shm import attach_block, unpack_arrays

__all__ = ["ProcessShardPool", "WorkerCrash"]


class WorkerCrash(RuntimeError):
    """A worker process died mid-conversation (pipe closed / send failed)."""


def default_start_method() -> str:
    """``fork`` on Linux (cheap, inherits imports), ``spawn`` elsewhere."""
    if sys.platform.startswith("linux"):
        if "fork" in multiprocessing.get_all_start_methods():
            return "fork"
    return "spawn"


class _WorkerHost(_ShardHost):
    """The host a worker's :class:`~repro.streaming.sharding._Shard` reads.

    Supplies what the in-process index supplies to its own shards: a
    mirror of the graph rows and their exact depths (full-size arrays;
    only owned rows are ever read or written; every stage-C reply ships
    the changed rows' depths back with their ids and scores), the
    metric with the profile index rebuilt from shared memory, which
    both scorers read, and the candidacy of the snapshot it attached
    last (:func:`~repro.streaming.sharding.pass_candidacy`), which every
    stage reads.
    """

    def __init__(self, init: dict):
        self.config = init["config"]
        self.metric = init["metric"]
        self.batch_size = int(init["batch_size"])
        #: The ownership rule at spawn time.  An ownership flip stops
        #: the pool, so a live worker's map is always current.
        self._shard_map = init["shard_map"]
        self._neighbors = np.array(init["neighbors"], dtype=ID_DTYPE)
        self._sims = np.array(init["sims"], dtype=SCORE_DTYPE)
        self._depth = np.array(init["depth"], dtype=ID_DTYPE)
        self._n_rows = int(self._neighbors.shape[0])
        # Shared-memory attachment, refreshed by attach().
        self.index = None
        self._block = None
        self._block_name = None
        self.shard = _Shard(int(init["shard_id"]), self)

    @property
    def n_users(self) -> int:
        return self.index.n_users

    def attach(self, name: str, manifest, n_users: int) -> None:
        """Rebuild the published snapshot and profile arrays as views,
        and build the pass's candidacy from them."""
        if self._block is None or self._block_name != name:
            if self._block is not None:
                self._block.close()
            self._block = attach_block(name)
            self._block_name = name
        arrays = unpack_arrays(self._block, manifest)
        # The kernel scores straight off these zero-copy CSR views: the
        # evaluate stage never builds scipy temporaries over shared
        # memory.
        self.index = ProfileIndex.from_shared_arrays(arrays)
        self._pass_candidacy = pass_candidacy(
            self.index.dataset, self.metric, self.config.min_rating
        )
        # Users joined since the last pass get their (empty) rows.
        self._grow_rows(n_users)

    def _scoring(self):
        return self.metric, self.index, self.batch_size

    def close(self) -> None:
        if self._block is not None:
            self._block.close()
            self._block = None


def _worker_main(conn, init: dict) -> None:
    """Entry point of one shard worker process.

    The idle loop polls with a timeout and watches ``getppid()``: a
    worker forked after its siblings inherits their parent-side pipe
    ends, so a crashed (SIGKILLed) parent never produces EOF on this
    worker's pipe — the reparenting check is what guarantees orphaned
    workers exit (and release their shared-memory attachments, letting
    the resource tracker reap the segments) within a second.
    """
    parent_pid = os.getppid()
    host = _WorkerHost(init)
    handlers = {
        "attach": host.attach,
        "affected": host.shard.affected,
        "plan": host.shard.plan,
        "merge": host.shard.merge,
    }
    try:
        while True:
            try:
                if not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        break  # orphaned: the parent is gone
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            req_id, kind, payload = message
            try:
                result = handlers[kind](*payload)
            except BaseException as exc:  # ship the failure to the parent
                try:
                    conn.send((req_id, "error", exc))
                except Exception:
                    conn.send((req_id, "error", RuntimeError(repr(exc))))
                continue
            conn.send((req_id, "ok", result))
    finally:
        host.close()
        conn.close()


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn


def _shutdown_workers(workers: list[_Worker]) -> None:
    """Stop worker processes: polite ``stop``, then escalate."""
    for worker in workers:
        try:
            worker.conn.send(("stop",))
        except (OSError, ValueError):
            pass
    for worker in workers:
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.kill()
            worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ProcessShardPool:
    """A persistent pool of one worker process per shard.

    Purely the transport: spawning (from caller-built init payloads),
    request/reply stage rounds with stale-reply
    draining, death detection (:class:`WorkerCrash`), reset and
    shutdown.  The :class:`~repro.streaming.index.DynamicKnnIndex`
    owns the orchestration and all authoritative state.  A ``weakref``
    finalizer stops the workers if the pool is garbage collected
    without :meth:`close`.
    """

    def __init__(self, n_shards: int):
        self.n_shards = int(n_shards)
        self._ctx = multiprocessing.get_context(default_start_method())
        self._workers: list[_Worker] | None = None
        self._req_id = 0
        self._finalizer = None

    @property
    def alive(self) -> bool:
        """True while every worker process is running."""
        return self._workers is not None and all(
            worker.process.is_alive() for worker in self._workers
        )

    @property
    def pids(self) -> list[int]:
        """Worker process ids, in shard order (for kill tests/monitoring)."""
        if self._workers is None:
            return []
        return [worker.process.pid for worker in self._workers]

    def spawn(self, make_init) -> None:
        """(Re)start every worker; ``make_init(shard_id)`` seeds each."""
        self.reset()
        workers: list[_Worker] = []
        for shard in range(self.n_shards):
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, make_init(shard)),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append(_Worker(process, parent_conn))
        self._workers = workers
        self._finalizer = weakref.finalize(self, _shutdown_workers, workers)

    def request_all(self, kind: str, payloads: list[tuple]) -> list:
        """One stage round: send to every worker, collect every reply.

        Raises :class:`WorkerCrash` when a pipe dies, or re-raises the
        worker's own exception when a stage handler failed.  Replies
        from an aborted earlier round are drained by request id.
        """
        if self._workers is None:
            raise WorkerCrash("worker pool is not running")
        self._req_id += 1
        req_id = self._req_id
        try:
            for worker, payload in zip(self._workers, payloads):
                worker.conn.send((req_id, kind, payload))
            results = []
            for worker in self._workers:
                while True:
                    reply = worker.conn.recv()
                    if reply[0] == req_id:
                        break
                status, value = reply[1], reply[2]
                if status == "error":
                    if isinstance(value, BaseException):
                        raise value
                    raise RuntimeError(str(value))
                results.append(value)
            return results
        except (EOFError, OSError, ValueError) as exc:
            raise WorkerCrash(
                f"a shard worker died during {kind!r}: {exc!r}"
            ) from exc

    def reset(self) -> None:
        """Stop every worker (a later :meth:`spawn` starts fresh ones)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._workers is not None:
            _shutdown_workers(self._workers)
            self._workers = None

    def close(self) -> None:
        """Deterministic shutdown (idempotent; also runs on GC)."""
        self.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "stopped"
        return f"ProcessShardPool(n_shards={self.n_shards}, {state})"
