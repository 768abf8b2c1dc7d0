"""Refresh locality bench: cost grows with the dirty set, not n_ratings.

A synthetic sparse workload is split 95%/5%; the 95% is prebuilt into a
:class:`DynamicKnnIndex` and refreshes are driven with controlled dirty
sets drawn from the 5% hold-out.  Measured via the maintenance counters
(deterministic, no wall-clock flakiness):

* a 1%-dirty refresh must perform <= 10% of the cold rebuild's row
  materialisations and ProfileIndex recomputations (the acceptance bar
  of the dirty-set-proportional refresh work);
* quadrupling the dirty set scales the counters ~4x;
* doubling n_ratings at a fixed dirty set leaves them unchanged;
* a one-event refresh publishes a patch of fewer than ``n_users / 16``
  rows instead of packing every row.
"""

import os

import numpy as np

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig
from repro.streaming import holdout_stream, ratings_batch

from _bench_utils import run_once

#: 95%-prebuilt / 5%-streamed synthetic workloads (paper-style sparsity).
_SCALES = {
    "tiny": dict(n_users=400, n_items=300, density=0.01, k=8),
    "laptop": dict(n_users=2_000, n_items=1_200, density=0.005, k=10),
}
_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop")


def _workload(n_users, n_items, density, seed=7):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    users, items = np.nonzero(mask)
    ratings = rng.integers(1, 6, size=users.size).astype(np.float64)
    dataset = BipartiteDataset.from_edges(
        users, items, ratings,
        n_users=n_users,
        n_items=n_items,
        name="locality-bench",
    )
    return holdout_stream(dataset, fraction=0.05, seed=seed)


def _prebuilt_index(params, density=None, seed=7):
    base, users, items, ratings = _workload(
        params["n_users"],
        params["n_items"],
        density if density is not None else params["density"],
        seed=seed,
    )
    index = DynamicKnnIndex(
        base, KiffConfig(k=params["k"]), auto_refresh=False
    )
    return index, users, items, ratings


def _dirty_batch(users, items, ratings, n_dirty):
    """The first hold-out event of each of *n_dirty* distinct users."""
    picked, seen = [], set()
    for j in range(users.size):
        user = int(users[j])
        if user not in seen:
            seen.add(user)
            picked.append(j)
            if len(seen) == n_dirty:
                break
    picked = np.asarray(picked, dtype=np.int64)
    return users[picked], items[picked], ratings[picked]


def test_refresh_locality_one_percent_dirty(benchmark):
    """1%-dirty refresh: <= 10% of the cold rebuild's per-user work."""
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    benchmark.group = "streaming:locality"
    index, users, items, ratings = _prebuilt_index(params)
    n_users = index.n_users
    n_dirty = max(1, n_users // 100)
    index.apply(ratings_batch(*_dirty_batch(users, items, ratings, n_dirty)))
    assert len(index.dirty_users) == n_dirty

    stats = run_once(benchmark, index.refresh)

    # A cold rebuild materialises n_users rows and recomputes n_users
    # ProfileIndex entries; the localized refresh must stay under 10%.
    assert stats.rows_materialized <= 0.10 * n_users, stats
    assert stats.index_users_recomputed <= 0.10 * n_users, stats
    assert index.maintenance.snapshots_incremental >= 1
    assert index.maintenance.index_updates_incremental >= 1
    benchmark.extra_info.update(
        n_users=n_users,
        dirty=n_dirty,
        rows_materialized=stats.rows_materialized,
        index_users_recomputed=stats.index_users_recomputed,
        rows_fraction_of_rebuild=stats.rows_materialized / n_users,
        affected_users=stats.affected_users,
        evaluations=stats.evaluations,
    )


def test_refresh_locality_one_event(benchmark):
    """One event: the publication packs only the rows the pass changed."""
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    benchmark.group = "streaming:locality"
    index, users, items, ratings = _prebuilt_index(params)
    n_users = index.n_users
    index.apply(ratings_batch(*_dirty_batch(users, items, ratings, 1)))

    stats = run_once(benchmark, index.refresh)

    assert 0 < stats.rows_published < n_users / 16, stats
    benchmark.extra_info.update(
        n_users=n_users,
        rows_published=stats.rows_published,
        affected_users=stats.affected_users,
        evaluations=stats.evaluations,
    )


def test_refresh_cost_scales_with_dirty_set():
    """4x the dirty users => ~4x the counted per-user refresh work."""
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    n_users = params["n_users"]
    results = {}
    for fraction in (0.01, 0.04):
        index, users, items, ratings = _prebuilt_index(params)
        n_dirty = max(1, int(n_users * fraction))
        index.apply(ratings_batch(*_dirty_batch(users, items, ratings, n_dirty)))
        stats = index.refresh()
        results[fraction] = stats
    small, large = results[0.01], results[0.04]
    # Row materialisations count exactly the dirty rows.
    assert small.rows_materialized == max(1, int(n_users * 0.01))
    assert large.rows_materialized == max(1, int(n_users * 0.04))
    ratio = large.index_users_recomputed / small.index_users_recomputed
    assert 2.0 <= ratio <= 8.0, (small, large)


def test_refresh_cost_flat_in_n_ratings():
    """Doubling n_ratings at a fixed dirty set leaves the counted
    snapshot/index work unchanged (the O(n_ratings) floor is gone)."""
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    n_dirty = max(1, params["n_users"] // 100)
    counted = {}
    for factor in (1.0, 2.0):
        index, users, items, ratings = _prebuilt_index(
            params, density=params["density"] * factor
        )
        index.apply(ratings_batch(*_dirty_batch(users, items, ratings, n_dirty)))
        stats = index.refresh()
        counted[factor] = (
            stats.rows_materialized,
            stats.index_users_recomputed,
        )
    assert counted[1.0][0] == counted[2.0][0] == n_dirty
    assert counted[1.0][1] == counted[2.0][1] == n_dirty
