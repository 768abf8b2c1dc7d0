"""Public accessors called from another thread while the writer refreshes."""

import threading

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.streaming import AddRating
from tests.conftest import random_dataset


@pytest.mark.parametrize(
    "n_shards, executor",
    [(1, "serial"), (2, "threads")],
    ids=["flat-serial", "2-threads"],
)
def test_referrer_counts_under_a_live_writer(n_shards, executor):
    """``referrer_counts`` reads the rows once.  Masking the live rows
    and then gathering from them let a refresh clear a row in between,
    and ``np.bincount`` raised on the ``MISSING`` id it gathered."""
    dataset = random_dataset(
        n_users=1500, n_items=60, density=0.05, seed=3, ratings=True
    )
    index = DynamicKnnIndex(
        dataset,
        KiffConfig(k=10),
        auto_refresh=False,
        n_shards=n_shards,
        executor=executor,
    )
    rng = np.random.default_rng(0)
    stop = threading.Event()
    errors: list[Exception] = []

    def read():
        users = np.array([0, 1])
        while not stop.is_set():
            try:
                assert (index.referrer_counts(users) >= 0).all()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

    reader = threading.Thread(target=read)
    reader.start()
    try:
        for _ in range(40):
            users = rng.integers(0, index.n_users, size=32)
            items = rng.integers(0, 60, size=32)
            ratings = rng.integers(0, 6, size=32)
            index.apply(
                [
                    AddRating(int(u), int(i), float(r))
                    for u, i, r in zip(users, items, ratings)
                ]
            )
            index.refresh()
    finally:
        stop.set()
        reader.join(timeout=30)
        index.close()
    assert not reader.is_alive()
    assert not errors, f"{len(errors)} reader errors, first: {errors[0]!r}"
