"""The three benchmark workloads and their correctness checks.

Each workload function takes a :class:`Run` (seed, measured seconds,
optional tracer, scratch directory) and returns the raw samples the
entry point turns into metrics.  Inputs come only from the seed; the
program under test receives only the generated datasets and events.

Why each workload exists is recorded in ``README.md`` next to this
file.  The choices that keep the figures steady:

* throughput is taken over whole stream passes, never short windows;
* freshness is one sample per event, not per batch;
* set-up and recovery are single shots, so each run repeats them,
  recovery in a process of its own and spread through the run where
  the workload allows;
* nothing forks a worker pool (the sharded index runs ``serial``);
* data is generated sparsely, so peak RSS measures the index, not a
  dense generator mask.
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig
from repro.datasets import wikipedia_like
from repro.graph.io import graph_from_arrays
from repro.graph.knn_graph import MISSING
from repro.layout import ID_DTYPE, SCORE_DTYPE
from repro.persistence import PartitionedWriteAheadLog
from repro.scheduling import RefreshScheduler, SchedulerPolicy
from repro.serving import GraphSnapshot, KnnServer, recommend_on
from repro.similarity.engine import SimilarityEngine
from repro.streaming import (
    ShardedKnnIndex,
    cold_rebuild_graph,
    flash_crowd_events,
    holdout_stream,
    poisson_burst_sizes,
)
from repro.streaming.events import ratings_batch

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: k=10, cosine (the index default), numpy kernels, converged graph.
CONFIG = KiffConfig(k=10, kernel_backend="numpy")
#: Set-up samples per run (one per pass, the rest after the passes).
SETUP_REPEATS = 3
#: serve-live restores on each side of the window.
RECOVER_REPEATS = 2
#: replay-bulk takes a restore probe every this many batches.
PROBE_EVERY = 6
#: Stream events the flat workloads' probe state holds unrefreshed.
PROBE_PENDING = 512

#: The ROADMAP reference data: 10k users x 4k items at 0.15% density,
#: 10% held out and streamed back in 256-event batches.
REFERENCE = dict(n_users=10_000, n_items=4_000, density=0.0015)
HOLDOUT_FRACTION = 0.1
REPLAY_BATCH = 256
#: serve-live offered load: Poisson writes and reads, events/s and req/s.
#: One event costs ~8 ms of refresh on the reference data on a 2-vCPU VM
#: whose speed drifts ~1.6x over tens of seconds; at
#: 40 events/s the writer stays below saturation even in a slow spell,
#: so freshness tracks refresh cost instead of a queue blowing up.
WRITE_RATE = 40.0
READ_RATE = 200.0
#: Nominal seconds one closed-loop pass measures: a run makes
#: ``round(seconds / PASS_SECONDS)`` passes, at least one, so the pass
#: count (and every per-pass counter) never depends on host speed.
PASS_SECONDS = 30.0
#: flash-durable: the laptop ``wikipedia`` preset shape, 3,000 flash-crowd
#: events in MMPP bursts, checkpoint half-way so the WAL tail is ~1,500.
FLASH_SHAPE = dict(n_users=1_500, n_items=600, density=0.0125)
FLASH_EVENTS = 3_000
FLASH_HOT_FRACTION = 0.5
FLASH_MAX_EVENT_LAG = 256
FLASH_SHARDS = 2
#: Restores of the final flash-durable state: there is only one.
FLASH_RECOVER_REPEATS = 7


# ----------------------------------------------------------------------
# Run context and raw samples
# ----------------------------------------------------------------------
@dataclass
class Run:
    """What a workload gets: its seed, budget, tracer and scratch dir."""

    seed: int
    seconds: float
    workdir: Path
    tracer: object | None = None

    def seeds(self, n: int) -> list[int]:
        """*n* independent sub-seeds derived from the workload seed."""
        state = np.random.SeedSequence(self.seed).generate_state(n)
        return [int(s) for s in state]

    def closed_loop_passes(self) -> int:
        """Whole passes a closed-loop workload makes in this run."""
        return max(1, round(self.seconds / PASS_SECONDS))

    def traced(self, on: bool) -> None:
        """Switch span recording on or off (no-op when untraced)."""
        if self.tracer is not None:
            self.tracer.set_active(on)


@dataclass
class Samples:
    """Raw measurements of one run, before summarising."""

    passes: int = 0
    setup_s: list = field(default_factory=list)
    recover_s: list = field(default_factory=list)
    stream_events: int = 0
    stream_wall_s: float = 0.0
    freshness_s: list = field(default_factory=list)
    read_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Layer figures only the workload itself can observe.
    layer: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; record it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Freshness:
    """Per-event freshness: arrival to first covering publication.

    Events arrive in sequence ranges that share an arrival instant; a
    publication at version *v* covers every pending event with
    ``seq <= v`` and yields one sample per event.
    """

    def __init__(self, samples: list):
        self._pending: deque = deque()
        self._samples = samples

    def arrive(self, first_seq: int, arrivals) -> None:
        """Events ``first_seq, first_seq + 1, ...`` arrived at *arrivals*."""
        self._pending.append((first_seq, np.asarray(arrivals, dtype=float)))

    def publish(self, version: int | None, now: float) -> None:
        """Snapshot *version* became pinnable at *now*."""
        if version is None:
            return
        while self._pending:
            first, arrivals = self._pending[0]
            covered = min(arrivals.size, version - first + 1)
            if covered <= 0:
                return
            self._samples.extend((now - arrivals[:covered]).tolist())
            if covered == arrivals.size:
                self._pending.popleft()
            else:
                self._pending[0] = (first + covered, arrivals[covered:])
                return

    @property
    def outstanding(self) -> int:
        """Events not yet covered by any publication."""
        return sum(arrivals.size for _, arrivals in self._pending)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def reference_data(seed: int):
    """The reference dataset split into base + held-out stream.

    Cells are drawn without replacement from the flat ``n_users *
    n_items`` index space, so memory is proportional to the ratings,
    never to the full matrix.
    """
    rng = np.random.default_rng(seed)
    n_users, n_items = REFERENCE["n_users"], REFERENCE["n_items"]
    n_cells = n_users * n_items
    # A fixed rating count gives every seed the same stream length, so
    # the batch sizes (and the restore probe's pending batch) never vary.
    n_ratings = round(n_cells * REFERENCE["density"])
    cells = rng.choice(n_cells, size=n_ratings, replace=False)
    users, items = np.divmod(cells, n_items)
    ratings = rng.integers(1, 6, size=n_ratings).astype(np.float64)
    dataset = BipartiteDataset.from_edges(
        users,
        items,
        ratings,
        n_users=n_users,
        n_items=n_items,
        name="reference",
    )
    base, s_users, s_items, s_ratings = holdout_stream(
        dataset, fraction=HOLDOUT_FRACTION, seed=seed
    )
    return base, (s_users, s_items, s_ratings)


def dataset_after(base: BipartiteDataset, stream, n_events: int):
    """The ratings after the first *n_events* stream events."""
    coo = base.matrix.tocoo()
    users, items, ratings = stream
    return BipartiteDataset.from_edges(
        np.concatenate([coo.row, users[:n_events]]),
        np.concatenate([coo.col, items[:n_events]]),
        np.concatenate([coo.data, ratings[:n_events]]),
        n_users=base.n_users,
        n_items=base.n_items,
        name="reference",
    )


# ----------------------------------------------------------------------
# Shared measurement pieces
# ----------------------------------------------------------------------
def check_parity(index, out: Samples, label: str):
    """The drained graph must equal a cold converged rebuild (returned)."""
    out.check(
        index.pending_events == 0 and not index.dirty_users,
        f"{label}: index not drained",
    )
    cold = cold_rebuild_graph(index.dataset, index.config)
    out.check(index.graph == cold, f"{label}: graph != cold rebuild")
    return cold


class Restorer:
    """Times restores and checks each against the live graph.

    Untraced runs restore in the restore-probe process (``restorer.py``):
    a recovery starts from a fresh process, and there every probe runs
    under the same conditions wherever it falls in the run, with no
    live index or server sharing its heap.  Traced runs restore
    in-process instead, so the restore's layers are recorded.
    """

    def __init__(self, run: Run, out: Samples):
        self.run = run
        self.out = out
        self.probes = 0
        self.proc = None
        if run.tracer is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "restorer.py"), str(SRC)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
            ready = self.proc.stdout.readline()
            if ready.strip() != b"ready":
                self.close()
                raise RuntimeError(f"restore probe failed to start: {ready!r}")

    def probe(self, state: Path, sharded: bool, graph, last_seq: int,
              label: str) -> None:
        """Restore the state directory *state* once, timed.

        *state* holds a checkpoint (and a flushed WAL, if the index has
        one) of a flat or *sharded* index.  Each restore reads a fresh
        copy of it, made untimed, and must land on exactly *graph* at
        sequence number *last_seq*.
        """
        copy = self.run.workdir / f"restore-{self.probes}"
        self.probes += 1
        shutil.copytree(state, copy)
        if self.proc is None:
            seconds, got_graph, got_seq = self._in_process(copy, sharded)
        else:
            seconds, got_graph, got_seq = self._in_child(copy, sharded)
        shutil.rmtree(copy)
        self.out.recover_s.append(seconds)
        self.out.check(
            got_graph == graph and got_seq == last_seq,
            f"{label}: restore != live graph",
        )

    def _in_process(self, copy: Path, sharded: bool):
        gc.collect()
        start = time.perf_counter()
        if sharded:
            restored = ShardedKnnIndex.restore(copy, executor="serial")
        else:
            restored = DynamicKnnIndex.restore(copy)
        restored.pin()
        seconds = time.perf_counter() - start
        graph, last_seq = restored.graph, restored.last_seq
        if restored.wal is not None:
            restored.wal.close()
        restored.close()
        return seconds, graph, last_seq

    def _in_child(self, copy: Path, sharded: bool):
        result = copy.with_suffix(".npz")
        request = {"state": str(copy), "sharded": sharded, "out": str(result)}
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("restore probe exited")
        with np.load(result) as arrays:
            graph = graph_from_arrays(arrays)
            last_seq = int(arrays["last_seq"])
        result.unlink()
        return json.loads(reply)["seconds"], graph, last_seq

    def close(self) -> None:
        """Stop the restore-probe process and wait for it."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        self.out.check(proc.returncode == 0, "restore probe process failed")


def pending_state(run: Run, base, stream, name: str) -> tuple:
    """The flat workloads' restart-probe state, built before timing.

    A separate index on *base* absorbs the first ``PROBE_PENDING``
    stream events and is checkpointed before it refreshes them, so a
    restore pays that refresh, as one after a crash does.  (A restore
    with nothing to refresh is mostly Python object building, whose
    speed swung with the host twice as much as the refresh's.)  The
    index's refreshed graph is what every restore must give.  Returns
    the :meth:`Restorer.probe` arguments.
    """
    users, items, ratings = stream
    pending = slice(0, PROBE_PENDING)
    index = DynamicKnnIndex(base, CONFIG, auto_refresh=False)
    index.apply(
        ratings_batch(users[pending], items[pending], ratings[pending])
    )
    state = run.workdir / name
    index.checkpoint(state)
    index.refresh()
    probe = (state, False, index.graph, index.last_seq)
    index.close()
    return probe


def timed_setup(build, out: Samples):
    """Run ``build()``, timing hand-over to the first pinnable snapshot.

    ``build()`` returns ``(index, handle)``, passed back unchanged.
    Garbage left by earlier passes is collected first, untimed.
    """
    gc.collect()
    start = time.perf_counter()
    index, handle = build()
    index.pin()
    out.setup_s.append(time.perf_counter() - start)
    return index, handle


def spare_setup(build, teardown, run: Run, out: Samples) -> None:
    """One untraced throwaway set-up sample, if more are still wanted.

    Runs once the live index is closed, so a spare set-up never shares
    the heap with another index.
    """
    if len(out.setup_s) >= SETUP_REPEATS:
        return
    tracing = run.tracer is not None and run.tracer.active
    run.traced(False)
    index, handle = timed_setup(build, out)
    teardown(index, handle)
    index.close()
    run.traced(tracing)


# ----------------------------------------------------------------------
# replay-bulk
# ----------------------------------------------------------------------
def replay_bulk(run: Run) -> Samples:
    """Closed-loop 256-event apply+refresh batches on the flat index."""
    out = Samples()
    base, stream = reference_data(run.seed)

    def build():
        return DynamicKnnIndex(base, CONFIG, auto_refresh=False), None

    restorer = Restorer(run, out)
    try:
        probe = pending_state(run, base, stream, "probe")
        while out.passes < run.closed_loop_passes():
            run.traced(True)
            index, _ = timed_setup(build, out)
            _replay_pass(out, index, stream, restorer, probe)
            run.traced(False)
            check_parity(index, out, "replay-bulk")
            index.close()
            del index
            out.passes += 1
        shutil.rmtree(probe[0])
        while len(out.setup_s) < SETUP_REPEATS:
            spare_setup(build, lambda index, handle: None, run, out)
    finally:
        restorer.close()
    return out


def _replay_pass(out, index, stream, restorer, probe):
    """The hold-out in batches, with restart probes spread through it.

    After every ``PROBE_EVERY``-th batch the probe state is restored
    once: every probe restores the same state, and the probes span the
    pass as the ingest figures do.  Probes fall between batches,
    outside the timed stream.
    """
    users, items, ratings = stream
    n_events = users.size
    fresh = Freshness(out.freshness_s)
    seq0 = index.last_seq
    for number, lo in enumerate(range(0, n_events, REPLAY_BATCH)):
        hi = min(lo + REPLAY_BATCH, n_events)
        batch = ratings_batch(users[lo:hi], items[lo:hi], ratings[lo:hi])
        start = time.perf_counter()
        index.apply(batch)
        index.refresh()
        now = time.perf_counter()
        out.stream_wall_s += now - start
        fresh.arrive(seq0 + lo + 1, np.full(hi - lo, start))
        fresh.publish(index.snapshot_version, now)
        if number % PROBE_EVERY == PROBE_EVERY - 1:
            restorer.probe(*probe, "replay-bulk")
    out.stream_events += n_events
    out.attempted += n_events
    out.check(fresh.outstanding == 0, "replay-bulk: unpublished events")


# ----------------------------------------------------------------------
# serve-live
# ----------------------------------------------------------------------
class _Loop:
    """An asyncio loop on its own thread, hosting the server."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="serve-loop"
        )
        self.thread.start()

    def call(self, coro, timeout: float = 60.0):
        """Run *coro* on the loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout
        )

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


def _cold_row(dataset: BipartiteDataset, user: int, k: int):
    """*user*'s exact top-k on *dataset*, scored pair by pair.

    The converged graph row: every co-rater is a candidate, ranked by
    (similarity descending, id ascending), scored on the canonical
    ``(min, max)`` pair orientation the refresh evaluates.
    """
    engine = SimilarityEngine(
        dataset, metric="cosine", kernel_backend=CONFIG.kernel_backend
    )
    items = dataset.user_items(user)
    cands = np.unique(
        np.concatenate(
            [dataset.item_users(int(i)) for i in items]
            or [np.empty(0, dtype=np.int64)]
        )
    ).astype(np.int64)
    cands = cands[cands != user]
    sims = engine.batch(np.minimum(cands, user), np.maximum(cands, user))
    engine.close()
    order = np.lexsort((cands, -sims.astype(np.float64)))[:k]
    return cands[order], sims[order]


def _check_replies(base, stream, seq0, replies, users, out):
    """Recompute sampled server replies cold at their reported version."""
    by_version: dict[int, list] = {}
    for sample in replies:
        reply = sample["reply"]
        if not reply.get("ok"):
            out.check(False, f"serve-live: error reply {reply}")
            continue
        out.check(
            reply["user"] == int(users[sample["pos"]]),
            "serve-live: reply for the wrong user",
        )
        by_version.setdefault(reply["version"], []).append(reply)
    k = CONFIG.k
    for version, group in sorted(by_version.items()):
        dataset = dataset_after(base, stream, version - seq0)
        for reply in group:
            user = reply["user"]
            ids, sims = _cold_row(dataset, user, k)
            if reply["op"] == "neighbors":
                ok = (reply["neighbors"] == ids.tolist()
                      and reply["sims"] == [float(s) for s in sims])
            else:
                neighbors = np.full((dataset.n_users, k), MISSING, ID_DTYPE)
                row_sims = np.full((dataset.n_users, k), -np.inf, SCORE_DTYPE)
                neighbors[user, :ids.size] = ids
                row_sims[user, :ids.size] = sims
                snapshot = GraphSnapshot.capture(
                    version, neighbors, row_sims, dataset,
                    np.zeros(dataset.n_users), np.zeros(dataset.n_users),
                )
                cold = recommend_on(snapshot, user)
                ok = (reply["items"] == list(cold.items)
                      and reply["scores"] == list(cold.scores))
            out.check(ok, f"serve-live: {reply['op']} reply for user "
                          f"{user} at version {version} != cold")


def _check_cold_rows(dataset, cold, users, out) -> None:
    """The pair-by-pair recomputation must agree with *cold* (kiff())."""
    for user in users.tolist():
        row = cold.neighbors[user]
        present = row != MISSING
        ids, sims = _cold_row(dataset, user, CONFIG.k)
        out.check(
            row[present].tolist() == ids.tolist()
            and cold.sims[user][present].tolist() == sims.tolist(),
            f"serve-live: cold row of user {user} disagrees with kiff()",
        )


def serve_live(run: Run) -> Samples:
    """Open-loop Poisson writes + a separate Poisson read process."""
    out = Samples()
    data_seed, write_seed, read_seed = run.seeds(3)
    base, stream = reference_data(data_seed)
    loop = _Loop()

    def build():
        index = DynamicKnnIndex(base, CONFIG, auto_refresh=False)
        server = KnnServer(index, host="127.0.0.1", port=0)
        loop.call(server.start())
        return index, server

    def teardown(index, server):
        loop.call(server.stop())

    restorer = Restorer(run, out)
    try:
        probe = pending_state(run, base, stream, "probe")
        run.traced(True)
        index, server = timed_setup(build, out)
        # Restart probes on both sides of the window, so the samples
        # span the run as the window's own figures do.
        for _ in range(RECOVER_REPEATS):
            restorer.probe(*probe, "serve-live before the window")
        _serve_window(run, out, base, stream, index, server,
                      write_seed, read_seed)
        teardown(index, server)
        for _ in range(RECOVER_REPEATS):
            restorer.probe(*probe, "serve-live after the window")
        shutil.rmtree(probe[0])
        run.traced(False)
        index.close()
        del index, server
        out.passes = 1
        while len(out.setup_s) < SETUP_REPEATS:
            spare_setup(build, teardown, run, out)
    finally:
        restorer.close()
        loop.close()
    return out


def _serve_window(run, out, base, stream, index, server,
                  write_seed, read_seed):
    """One live window: the writer here, the reader in its own process."""
    users, items, ratings = stream
    host, port = server.address
    reader = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).with_name("reader.py")),
            host,
            str(port),
            str(read_seed),
            str(base.n_users),
            repr(READ_RATE),
            repr(float(run.seconds)),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        ready = reader.stdout.readline()
        if ready.strip() != b"ready":
            raise RuntimeError(f"read generator failed to start: {ready!r}")
        # Both processes read the system-wide monotonic clock.
        start = time.perf_counter() + 0.2
        reader.stdin.write(f"{start!r}\n".encode())
        reader.stdin.flush()
        # Poisson arrivals conditioned on their count: uniform order
        # statistics, so every window offers exactly rate * seconds
        # events and the ingest rate carries no count noise.
        n_live = min(int(WRITE_RATE * run.seconds), users.size)
        rng = np.random.default_rng(write_seed)
        due = start + np.sort(rng.uniform(0.0, run.seconds, size=n_live))
        fresh = Freshness(out.freshness_s)
        seq0 = index.last_seq
        busy = 0.0
        backlog_max = 0
        pos = 0
        last_publish = start
        while pos < n_live:
            now = time.perf_counter()
            if due[pos] > now:
                time.sleep(due[pos] - now)
                continue
            hi = int(np.searchsorted(due, now, side="right"))
            backlog_max = max(backlog_max, hi - pos)
            began = time.perf_counter()
            index.apply(
                ratings_batch(users[pos:hi], items[pos:hi], ratings[pos:hi])
            )
            index.refresh()
            last_publish = time.perf_counter()
            busy += last_publish - began
            fresh.arrive(seq0 + pos + 1, due[pos:hi])
            fresh.publish(index.snapshot_version, last_publish)
            pos = hi
        window = max(last_publish, start + run.seconds) - start
        reply_text, _ = reader.communicate(timeout=120)
    finally:
        if reader.poll() is None:
            reader.kill()
        reader.wait()
    run.traced(False)
    out.stream_events += n_live
    out.stream_wall_s += last_publish - start
    out.attempted += n_live
    out.check(fresh.outstanding == 0, "serve-live: unpublished events")
    out.check(reader.returncode == 0, "serve-live: read generator failed")
    result = json.loads(reply_text)
    out.read_s.extend(result["latency_s"])
    out.attempted += result["attempted"]
    out.failed += result["attempted"] - result["answered"]
    out.failed += result["n_errors"]
    out.problems.extend(result["errors"])
    late = np.asarray(result["late_s"])
    out.layer.update(
        {
            "serving.requests": server.requests,
            "serving.batch_size_mean": server.requests / max(server.batches, 1),
            "streaming.writer.busy_share": busy / window,
            "streaming.backlog_events_max": backlog_max,
            "gen.read.late_p99_s": float(np.percentile(late, 99))
            if late.size else 0.0,
        }
    )
    cold = check_parity(index, out, "serve-live")
    probe_users = np.random.default_rng(read_seed).integers(
        0, base.n_users, size=8
    )
    _check_cold_rows(index.dataset, cold, probe_users, out)
    _check_replies(base, stream, seq0, result["samples"],
                   np.asarray(result["users"]), out)
    run.traced(True)


# ----------------------------------------------------------------------
# flash-durable
# ----------------------------------------------------------------------
def flash_durable(run: Run) -> Samples:
    """Scheduled flash-crowd bursts into a durable 2-shard index."""
    out = Samples()
    data_seed, event_seed, burst_seed = run.seeds(3)
    base = wikipedia_like(seed=data_seed, **FLASH_SHAPE)
    events = flash_crowd_events(
        base, FLASH_EVENTS, seed=event_seed,
        hot_fraction=FLASH_HOT_FRACTION,
    )
    sizes = poisson_burst_sizes(FLASH_EVENTS, seed=burst_seed)

    def teardown(index, state):
        index.wal.close()
        shutil.rmtree(state)

    restorer = Restorer(run, out)
    try:
        while out.passes < run.closed_loop_passes():
            state = run.workdir / f"flash{out.passes}"
            run.traced(True)
            index, _ = timed_setup(lambda: _build_durable(base, state), out)
            _flash_stream(run, out, index, events, sizes)
            run.traced(False)
            check_parity(index, out, "flash-durable")
            # Mid-stream checkpoint plus the WAL tail written after it.
            index.wal.flush()
            final = (state, True, index.graph, index.last_seq)
            run.traced(True)
            for _ in range(FLASH_RECOVER_REPEATS):
                restorer.probe(*final, "flash-durable")
            run.traced(False)
            teardown(index, state)
            index.close()
            del index
            out.passes += 1
        while len(out.setup_s) < SETUP_REPEATS:
            spare_setup(
                lambda: _build_durable(base, run.workdir / "flash-spare"),
                teardown,
                run,
                out,
            )
    finally:
        restorer.close()
    return out


def _build_durable(base, state: Path):
    """Sharded index + partitioned WAL + base checkpoint in *state*."""
    index = ShardedKnnIndex(
        base,
        CONFIG,
        auto_refresh=False,
        n_shards=FLASH_SHARDS,
        executor="serial",
    )
    index.attach_wal(PartitionedWriteAheadLog(state, FLASH_SHARDS))
    index.checkpoint(state)
    return index, state


def _flash_stream(run, out, index, events, sizes):
    """Bursts through the scheduler, a mid-stream checkpoint, a drain."""
    users, items, ratings = events
    state = index.wal.path
    scheduler = RefreshScheduler(
        index, SchedulerPolicy(max_event_lag=FLASH_MAX_EVENT_LAG)
    )
    fresh = Freshness(out.freshness_s)
    seq0 = index.last_seq
    maintenance = index.maintenance
    passes0 = maintenance.scheduler_passes
    deferrals0 = maintenance.scheduler_deferrals
    checkpointed = False
    offset = 0
    for size in sizes.tolist():
        start = time.perf_counter()
        if size == 0:
            scheduler.tick()
        else:
            hi = offset + size
            fresh.arrive(seq0 + offset + 1, np.full(size, start))
            scheduler.submit(
                ratings_batch(users[offset:hi], items[offset:hi],
                              ratings[offset:hi])
            )
            offset = hi
            if not checkpointed and offset >= FLASH_EVENTS // 2:
                scheduler.checkpoint(state)
                checkpointed = True
        now = time.perf_counter()
        out.stream_wall_s += now - start
        fresh.publish(index.snapshot_version, now)
    start = time.perf_counter()
    scheduler.drain()
    now = time.perf_counter()
    out.stream_wall_s += now - start
    fresh.publish(index.snapshot_version, now)
    out.stream_events += FLASH_EVENTS
    out.attempted += FLASH_EVENTS
    out.check(fresh.outstanding == 0, "flash-durable: unpublished events")
    out.check(index.last_seq - seq0 == FLASH_EVENTS,
              "flash-durable: events lost")
    if run.tracer is not None:
        tracer = run.tracer
        tracer.add("scheduling.passes",
                   maintenance.scheduler_passes - passes0)
        tracer.add("scheduling.deferrals",
                   maintenance.scheduler_deferrals - deferrals0)
        index.wal.flush()
        tracer.add(
            "persistence.wal.bytes",
            sum(path.stat().st_size for path in state.glob("wal-*.jsonl")),
        )
        tracer.add("persistence.wal.events", FLASH_EVENTS)


WORKLOADS = {
    "replay-bulk": replay_bulk,
    "serve-live": serve_live,
    "flash-durable": flash_durable,
}
