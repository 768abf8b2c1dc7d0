"""Concurrent readers vs a live writer: the lock-free serving contract.

N reader threads hammer ``pin()`` + query while the writer thread
applies the parity corpus's event stream and refreshes.  Every sampled
response must be bit-identical to a cold recomputation against the
published snapshot of the version it reports, versions must be
monotonic per reader, and every published snapshot must itself be in
exact parity with a cold KIFF rebuild on its own dataset view.  Each
executor runs twice: with the default patch share (these small
indexes then pack every row on nearly every publication) and with
patches allowed up to every row (each publication a patch over the
first base).
"""

import threading

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig, ShardedKnnIndex
from repro.serving import neighbors_on, recommend_on
from repro.serving import snapshot as snapshot_module
from repro.streaming import AddRating, AddUser, RemoveUser, cold_rebuild_graph
from tests.conftest import random_dataset

N_READERS = 4
N_EVENTS = 40
REFRESH_EVERY = 5


def _make_index(kind):
    dataset = random_dataset(
        n_users=18, n_items=14, density=0.15, seed=21, ratings=True
    )
    config = KiffConfig(k=4)
    if kind == "dynamic":
        return DynamicKnnIndex(dataset, config, auto_refresh=False)
    return ShardedKnnIndex(
        dataset, config, auto_refresh=False, n_shards=2, executor=kind
    )


def _random_event(rng, n_users, max_item=14):
    op = rng.integers(0, 10)
    if op < 6:
        return AddRating(
            int(rng.integers(0, n_users)),
            int(rng.integers(0, max_item)),
            float(rng.integers(1, 6)),
        )
    if op < 8:
        size = int(rng.integers(1, 4))
        return AddUser(
            tuple(rng.choice(max_item, size=size, replace=False).tolist()),
            tuple(rng.integers(1, 6, size=size).astype(float).tolist()),
        )
    return RemoveUser(int(rng.integers(0, n_users)))


KINDS = ["dynamic", "serial", "threads", "processes"]


@pytest.mark.parametrize("kind", KINDS)
def test_readers_never_observe_torn_or_stale_state(kind):
    _check_readers(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_readers_of_patched_snapshots(kind, monkeypatch):
    monkeypatch.setattr(snapshot_module, "MAX_PATCH_SHARE", 1.0)
    _check_readers(kind)


def _check_readers(kind):
    index = _make_index(kind)
    try:
        first = index.pin()
        published = {first.version: first}
        errors: list[BaseException] = []
        done = threading.Event()

        def write_stream() -> None:
            try:
                rng = np.random.default_rng(21)
                for event_no in range(1, N_EVENTS + 1):
                    index.apply(_random_event(rng, index.n_users))
                    if event_no % REFRESH_EVERY == 0:
                        index.refresh()
                        snapshot = index.pin()
                        published[snapshot.version] = snapshot
                index.refresh()
                snapshot = index.pin()
                published[snapshot.version] = snapshot
            except BaseException as error:
                errors.append(error)
            finally:
                done.set()

        def read_queries(seed: int, out: list) -> None:
            try:
                rng = np.random.default_rng(seed)
                while not done.is_set():
                    snapshot = index.pin()
                    user = int(rng.integers(0, snapshot.n_users))
                    if rng.random() < 0.5:
                        reply = neighbors_on(snapshot, user)
                    else:
                        reply = recommend_on(snapshot, user)
                    out.append(reply)
            except BaseException as error:
                errors.append(error)

        reader_logs: list[list] = [[] for _ in range(N_READERS)]
        readers = [
            threading.Thread(target=read_queries, args=(100 + pos, log))
            for pos, log in enumerate(reader_logs)
        ]
        writer = threading.Thread(target=write_stream)
        for thread in readers:
            thread.start()
        writer.start()
        writer.join(timeout=120)
        for thread in readers:
            thread.join(timeout=120)
        assert not errors, errors

        # Readers saw only published versions, monotonically.
        total = 0
        for log in reader_logs:
            versions = [reply.version for reply in log]
            assert all(
                later >= earlier
                for earlier, later in zip(versions, versions[1:])
            ), "snapshot versions went backwards within one reader"
            for reply in log:
                assert reply.version in published
                snapshot = published[reply.version]
                if isinstance(reply, type(neighbors_on(snapshot, 0))):
                    cold = neighbors_on(snapshot, reply.user)
                else:
                    cold = recommend_on(snapshot, reply.user)
                assert cold == reply, (
                    f"response at version {reply.version} is not "
                    f"bit-identical to a cold query on that snapshot"
                )
                total += 1
        assert total > 0, "readers never completed a query"

        # Every published snapshot is itself exact: parity with a cold
        # converged KIFF rebuild on its own dataset view.
        for snapshot in published.values():
            assert snapshot.graph() == cold_rebuild_graph(
                snapshot.dataset, index.config
            )
        assert index.pin().version == index.last_seq == N_EVENTS
    finally:
        index.close()
