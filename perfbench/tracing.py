"""Outside-in layer tracing for the benchmark's traced run.

:class:`Tracer` installs timing wrappers around public functions of
each ``repro`` layer (module attributes and class attributes, patched
from here so the library itself is untouched).  Every wrapped call
becomes a span: name, start, end and the span that was open on the
same thread when it started (its parent).  Spans live in per-thread
``array`` buffers until the run ends; :meth:`Tracer.summary` then
computes per-name calls, busy time and self time (duration minus the
part covered by direct children), and :meth:`Tracer.dump` writes the
raw spans.

Wrappers record only while :attr:`Tracer.active` is set, so the
benchmark's own correctness checks (cold rebuilds, reply
recomputation) never show up in the layer figures.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "install_layer_wrappers"]


class _Buffer:
    """One thread's span storage (appends need no lock)."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.active = False
        #: Seconds spent with recording on (the traced window).
        self.active_s = 0.0
        self._since = 0.0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._undo: list[tuple] = []
        #: Counters recorded at span boundaries (work done, outcomes).
        self.counts: dict[str, float] = defaultdict(float)
        #: Running maxima (queue depths, backlogs).
        self.maxima: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        """Stable small-integer id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer(threading.current_thread().name)
            self._local.buffer = buffer
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def open(self, nid: int) -> tuple[_Buffer, int]:
        """Start a span; returns the handle :meth:`close` needs."""
        buffer = self._buffer()
        idx = len(buffer.start)
        buffer.name_id.append(nid)
        buffer.parent.append(buffer.stack[-1] if buffer.stack else -1)
        buffer.end.append(0.0)
        buffer.stack.append(idx)
        buffer.start.append(time.perf_counter())
        return buffer, idx

    @staticmethod
    def close(handle: tuple[_Buffer, int]) -> None:
        """End the span *handle* refers to."""
        buffer, idx = handle
        buffer.end[idx] = time.perf_counter()
        buffer.stack.pop()

    def set_active(self, on: bool) -> None:
        """Start or stop recording, accumulating :attr:`active_s`."""
        now = time.perf_counter()
        if on and not self.active:
            self._since = now
        elif self.active and not on:
            self.active_s += now - self._since
        self.active = on

    def add(self, name: str, value: float = 1.0) -> None:
        """Bump counter *name* (only while active)."""
        if self.active:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        """Record *value* into the running maximum *name*."""
        if self.active and value > self.maxima[name]:
            self.maxima[name] = value

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *owner* is a module or a class; class- and static-methods keep
        their descriptor type.  ``after(tracer, args, result)`` runs
        after a recorded call, outside the span, to turn arguments and
        results into counters.
        """
        original = vars(owner)[attr]
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)
        ) else None
        func = original.__func__ if kind else original
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            handle = tracer.open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(handle)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds one recorded span adds, timed on a no-op wrapper."""

        class _Probe:
            @staticmethod
            def noop():
                return None

        probe = Tracer()
        probe.wrap(_Probe, "noop", "probe")
        probe.active = True
        start = time.perf_counter()
        for _ in range(calls):
            _Probe.noop()
        traced = time.perf_counter() - start
        probe.active = False
        start = time.perf_counter()
        for _ in range(calls):
            _Probe.noop()
        bare = time.perf_counter() - start
        return max(traced - bare, 0.0) / calls

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def _arrays(self):
        """Per-buffer numpy views: (name_id, parent, start, end)."""
        for buffer in self._buffers:
            yield (
                np.frombuffer(buffer.name_id, dtype=np.int32),
                np.frombuffer(buffer.parent, dtype=np.int32),
                np.frombuffer(buffer.start, dtype=np.float64),
                np.frombuffer(buffer.end, dtype=np.float64),
            )

    def n_spans(self) -> int:
        """Spans recorded so far, all threads."""
        return sum(len(buffer.start) for buffer in self._buffers)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s``, ``self_s``, ``child_s``.

        ``child_s`` is the time covered by direct children, so
        ``self_s + child_s == busy_s`` for every name.
        """
        n_names = len(self.names)
        calls = np.zeros(n_names)
        busy = np.zeros(n_names)
        child = np.zeros(n_names)
        for name_id, parent, start, end in self._arrays():
            if name_id.size == 0:
                continue
            duration = end - start
            has_parent = parent >= 0
            covered = np.bincount(
                parent[has_parent],
                weights=duration[has_parent],
                minlength=name_id.size,
            )
            calls += np.bincount(name_id, minlength=n_names)
            busy += np.bincount(name_id, weights=duration, minlength=n_names)
            child += np.bincount(name_id, weights=covered, minlength=n_names)
        return {
            name: {
                "calls": float(calls[nid]),
                "busy_s": float(busy[nid]),
                "child_s": float(child[nid]),
                "self_s": float(busy[nid] - child[nid]),
            }
            for nid, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Every recorded duration of span *name* (all threads)."""
        nid = self._name_ids.get(name)
        parts = [
            (end - start)[name_id == nid]
            for name_id, _, start, end in self._arrays()
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def busy_under(self, name: str, ancestor: str) -> float:
        """Total duration of *name* spans that have an *ancestor* span."""
        nid = self._name_ids.get(name)
        aid = self._name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0.0
        total = 0.0
        for name_id, parent, start, end in self._arrays():
            for idx in np.flatnonzero(name_id == nid).tolist():
                up = int(parent[idx])
                while up >= 0 and name_id[up] != aid:
                    up = int(parent[up])
                if up >= 0:
                    total += float(end[idx] - start[idx])
        return total

    def dump(self, path: Path, extra: dict) -> None:
        """Write the raw spans (``.npz``) and a JSON sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {}
        threads = []
        for pos, (name_id, parent, start, end) in enumerate(self._arrays()):
            arrays[f"t{pos}_name"] = name_id
            arrays[f"t{pos}_parent"] = parent
            arrays[f"t{pos}_start"] = start
            arrays[f"t{pos}_end"] = end
            threads.append(self._buffers[pos].thread_name)
        np.savez_compressed(path.with_suffix(".npz"), **arrays)
        sidecar = {
            "names": self.names,
            "threads": threads,
            "summary": self.summary(),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            **extra,
        }
        path.with_suffix(".json").write_text(json.dumps(sidecar, indent=1))


# ----------------------------------------------------------------------
# The layer boundaries the traced run records
# ----------------------------------------------------------------------
def _after_merge(tracer: Tracer, args, result) -> None:
    active, _, _, changes = result
    tracer.add("graph.merge.offers", len(args[2]))
    tracer.add("graph.merge.rows", len(active))
    tracer.add("graph.merge.changes", changes)


def _after_kernel(tracer: Tracer, args, result) -> None:
    tracer.add("similarity.kernel.pairs", len(result))


def _after_refresh(tracer: Tracer, args, result) -> None:
    tracer.add("streaming.refresh.affected_users", result.affected_users)
    tracer.add("streaming.refresh.evaluations", result.evaluations)
    tracer.add("streaming.refresh.cache_hits", result.cache_hits)
    tracer.add("streaming.refresh.cache_misses", result.cache_misses)
    tracer.add("datasets.rows_materialized", result.rows_materialized)
    index = args[0]
    outboxes = getattr(index, "last_outboxes", ())
    tracer.add(
        "streaming.outbox_pairs", sum(box.rows.size for box in outboxes)
    )


def _after_kiff(tracer: Tracer, args, result) -> None:
    tracer.add("core.kiff.evaluations", result.evaluations)


def _after_submit(tracer: Tracer, args, result) -> None:
    tracer.peak("scheduling.queue_depth_max", args[0].queue_depth)


def _after_restore(tracer: Tracer, args, result) -> None:
    tracer.add("persistence.restore.replayed_events",
               result.restore_info.replayed_events)
    tracer.add("persistence.restore.refresh_s",
               result.refresh_log[-1].wall_time if result.refresh_log else 0)


def _after_checkpoint(tracer: Tracer, args, result) -> None:
    path = Path(result)
    files = path.rglob("*") if path.is_dir() else (path,)
    tracer.add(
        "persistence.checkpoint.bytes",
        sum(f.stat().st_size for f in files if f.is_file()),
    )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points named in the README."""
    from repro.datasets.mutable import MutableBipartiteBuilder
    from repro.graph.updates import ReverseNeighborIndex
    from repro.persistence import PartitionedWriteAheadLog
    from repro.scheduling import RefreshScheduler
    from repro.serving import GraphSnapshot, Recommender
    from repro.similarity.engine import SimilarityEngine
    from repro.similarity.kernels.numpy_backend import NumpyKernelBackend
    from repro.streaming import index as index_module
    from repro.streaming import sharding as sharding_module

    DynamicKnnIndex = index_module.DynamicKnnIndex
    ShardedKnnIndex = sharding_module.ShardedKnnIndex

    tracer.wrap(MutableBipartiteBuilder, "snapshot", "datasets.snapshot")
    tracer.wrap(index_module, "kiff", "core.kiff", _after_kiff)
    tracer.wrap(SimilarityEngine, "rebind", "similarity.rebind")
    tracer.wrap(
        NumpyKernelBackend, "score_pairs", "similarity.kernel", _after_kernel
    )
    # The flat and sharded refreshes each import the merge by name.
    tracer.wrap(index_module, "merge_topk_rows", "graph.merge", _after_merge)
    tracer.wrap(
        sharding_module, "merge_topk_rows", "graph.merge", _after_merge
    )
    tracer.wrap(ReverseNeighborIndex, "apply_row", "graph.reverse")
    tracer.wrap(ReverseNeighborIndex, "referrers_of", "graph.reverse")
    # ShardedKnnIndex.apply delegates to DynamicKnnIndex.apply, so one
    # wrapper covers both; the two refreshes are separate bodies.
    tracer.wrap(DynamicKnnIndex, "apply", "streaming.apply")
    tracer.wrap(
        DynamicKnnIndex, "refresh", "streaming.refresh", _after_refresh
    )
    tracer.wrap(
        ShardedKnnIndex, "refresh", "streaming.refresh", _after_refresh
    )
    tracer.wrap(sharding_module, "plan_shard_pairs", "streaming.shard_plan")
    tracer.wrap(
        sharding_module, "merge_shard_pairs", "streaming.shard_merge"
    )
    tracer.wrap(
        RefreshScheduler, "submit", "scheduling.submit", _after_submit
    )
    tracer.wrap(PartitionedWriteAheadLog, "append", "persistence.wal.append")
    # Both index classes define their own checkpoint/restore bodies.
    for cls in (DynamicKnnIndex, ShardedKnnIndex):
        tracer.wrap(
            cls, "checkpoint", "persistence.checkpoint", _after_checkpoint
        )
        tracer.wrap(cls, "restore", "persistence.restore", _after_restore)
    tracer.wrap(GraphSnapshot, "capture", "serving.capture")
    tracer.wrap(Recommender, "neighbors", "serving.answer")
    tracer.wrap(Recommender, "recommend", "serving.answer")
