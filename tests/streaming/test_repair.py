"""Referrer repair: clean rows that cite a dirty user keep their entries.

Rows are ``k + RESERVE`` wide and exact to a per-row depth.  A clean row
citing a selected dirty user (in any column) drops those entries, takes
the dirty users' fresh scores through the mirror offers, and is
accepted when its new k-th entry ranks at or ahead of its old boundary,
the entry at ``depth - 1`` (or when that boundary was empty, so it
already held every candidate).  Otherwise — it lost more than its
reserve — it falls back to a rescan of its candidate set.  Every metric
shares the rule, ``adamic_adar`` (global item weights) included.

Every scenario runs on the flat serial index and on two shards under
``threads`` and ``processes``, and must land on the cold rebuild.  With
a full refresh the rows rebuilt beyond the dirty users are exactly the
fallbacks, so ``RefreshStats.fallbacks`` equals ``affected_users -
dirty_users``.
"""

import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig
from repro.similarity.jaccard import JaccardSimilarity
from repro.streaming import sharding
from repro.streaming.index import RESERVE
from repro.streaming.sharding import _Shard
from repro.streaming import (
    AddRating,
    RemoveRating,
    RemoveUser,
    cold_rebuild_graph,
)
from tests.conftest import exhaust_reserve_events, split_checked

#: (n_shards, executor) of every scenario.
LAYOUTS = [(1, "serial"), (2, "threads"), (2, "processes")]
LAYOUT_IDS = ["flat-serial", "2-threads", "2-processes"]


def make_index(dataset, layout, metric="jaccard", **config):
    n_shards, executor = layout
    return DynamicKnnIndex(
        dataset,
        KiffConfig(**config),
        metric=metric,
        auto_refresh=False,
        n_shards=n_shards,
        executor=executor,
    )


def assert_exact(index, metric="jaccard"):
    expected = cold_rebuild_graph(index.dataset, index.config, metric=metric)
    assert index.graph == expected  # ids AND sims, exact


def fallbacks(stats):
    """Repaired rows that fell back; with a full refresh they are
    exactly the rows rebuilt beyond the dirty users."""
    if not stats.deferred_users:
        assert stats.fallbacks == stats.affected_users - stats.dirty_users
    return stats.fallbacks


def full_rows_dataset():
    """Four users whose k=2 rows are full; user 1 is cited by 0, 2, 3.

    Jaccard: row 0 = [1 (1.0), 2 (0.6)], row 2 = [0, 1] (0.6 tie),
    row 3 = [0, 1] (0.4 ties, ahead of user 2 by id).
    """
    return BipartiteDataset.from_profiles(
        [
            {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0},
            {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0},
            {0: 5.0, 1: 5.0, 2: 5.0, 9: 5.0},
            {0: 5.0, 1: 5.0, 8: 5.0},
        ],
        n_items=10,
    )


#: The users of :func:`reserve_rows_dataset` that clone the hub, user 0.
NEAR = list(range(1, RESERVE + 2))
#: Its two far users, cited by every row of a near user.
FAR = [RESERVE + 2, RESERVE + 3]


def reserve_rows_dataset():
    """A hub whose exact prefix holds more near users than the reserve.

    Users ``NEAR`` (``RESERVE + 1`` of them) clone the hub's profile
    ``{0, 1, 2, 3}``; the ``FAR`` users rate ``{1, 2}`` plus a private
    item.  Jaccard at k=2: row 0 = ``NEAR`` (1.0) then ``FAR[0]`` (0.4),
    its full ``k + RESERVE`` width, exact to it; each far row = the
    other far user (0.5), then user 0 and the near users (0.4 ties).
    """
    hub = {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0}
    far = [{1: 5.0, 2: 5.0, 4 + j: 5.0} for j in range(len(FAR))]
    return BipartiteDataset.from_profiles(
        [hub] + [dict(hub) for _ in NEAR] + far, n_items=4 + len(FAR)
    )


def lower_near_users():
    """Every near user keeps only item 0: 0.25 in row 0, below the far
    users, and no longer a candidate of the far rows."""
    return [RemoveRating(user, item) for user in NEAR for item in (1, 2, 3)]


def sparse_rows_dataset():
    """Three users whose k=4 rows all have empty slots; 1 is cited by 0, 2."""
    return BipartiteDataset.from_profiles(
        [
            {0: 5.0, 1: 5.0},
            {0: 5.0, 1: 5.0},
            {1: 5.0, 2: 5.0},
        ],
        n_items=6,
    )


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
class TestRepairPaths:
    def test_lowered_cited_neighbour_within_the_reserve_is_repaired(
        self, layout
    ):
        index = make_index(full_rows_dataset(), layout, k=2)
        try:
            assert 1 in index.graph.neighbors_of(0).tolist()
            # User 1 keeps only item 0 and falls below every row's old
            # k-th entry, but each row citing her (0, 2 and 3) holds all
            # of its candidates within its reserve: all repair in place.
            index.apply(
                [RemoveRating(1, 1), RemoveRating(1, 2), RemoveRating(1, 3)]
            )
            stats = index.refresh()
            assert stats.dirty_users == 1
            assert stats.repaired_users == 3
            assert fallbacks(stats) == 0
            assert_exact(index)
            assert index.graph.neighbors_of(0).tolist() == [2, 3]
        finally:
            index.close()

    def test_lowering_more_than_the_reserve_forces_a_fallback(self, layout):
        index = make_index(reserve_rows_dataset(), layout, k=2)
        try:
            assert index.graph.neighbors_of(0).tolist() == NEAR[:2]
            # Every near user drops below FAR[0], row 0's boundary: the
            # row keeps one exact entry, fewer than k, and falls back.
            # The far rows lose their near users as candidates and keep
            # two exact entries, so they repair in place.
            index.apply(lower_near_users())
            stats = index.refresh()
            assert stats.dirty_users == len(NEAR)
            assert fallbacks(stats) == 1  # row 0
            assert stats.repaired_users == len(FAR)
            assert stats.cache_misses + stats.cache_hits == (
                stats.affected_users
            )
            assert_exact(index)
            assert index.graph.neighbors_of(0).tolist() == FAR
        finally:
            index.close()

    def test_raised_cited_neighbour_is_repaired(self, layout):
        index = make_index(full_rows_dataset(), layout, k=2)
        try:
            # User 2 gains item 3 and rises to 0.8 in rows 0 and 1; row
            # 3 cites her in its reserve.  All three keep user 1 and
            # repair in place.
            index.apply(AddRating(2, 3, 5.0))
            stats = index.refresh()
            assert stats.repaired_users == 3
            assert fallbacks(stats) == 0
            assert_exact(index)
        finally:
            index.close()

    def test_row_with_an_empty_slot_is_always_repaired(self, layout):
        index = make_index(sparse_rows_dataset(), layout, k=4)
        try:
            # A lowering re-rating: user 1 drifts away from user 0.
            index.apply([AddRating(1, 3, 5.0), AddRating(1, 4, 5.0)])
            stats = index.refresh()
            assert stats.dirty_users == 1
            assert stats.repaired_users == 2  # rows 0 and 2
            assert fallbacks(stats) == 0
            assert_exact(index)
        finally:
            index.close()

    @pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
    def test_removed_cited_user_leaves_rows_exact(self, layout, sparse):
        dataset = sparse_rows_dataset() if sparse else reserve_rows_dataset()
        index = make_index(dataset, layout, k=4 if sparse else 2)
        try:
            # Sparse: user 1 leaves two rows with empty slots.  Full:
            # every near user leaves, more than row 0's reserve.
            removed = [1] if sparse else NEAR
            index.apply([RemoveUser(user) for user in removed])
            stats = index.refresh()
            if sparse:
                assert stats.repaired_users == 2
                assert fallbacks(stats) == 0
            else:
                assert stats.repaired_users == len(FAR)
                assert fallbacks(stats) == 1  # row 0
            assert_exact(index)
            cited = set(index._rows()[0].ravel().tolist())
            assert cited.isdisjoint(removed)  # reserve included
        finally:
            index.close()

    @pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
    def test_cited_user_below_min_rating_leaves_rows_exact(
        self, layout, sparse
    ):
        dataset = sparse_rows_dataset() if sparse else full_rows_dataset()
        index = make_index(
            dataset, layout, k=4 if sparse else 2, min_rating=3.0
        )
        try:
            # User 1 keeps her items but rates them too low to co-rate.
            events = [
                AddRating(1, item, 1.0)
                for item in index.builder.profile(1)
            ]
            index.apply(events)
            stats = index.refresh()
            assert stats.dirty_users == 1
            assert stats.repaired_users + fallbacks(stats) >= 2
            assert_exact(index)
            assert 1 not in index.graph.neighbors.ravel().tolist()
        finally:
            index.close()

    def test_adamic_adar_repairs_referrers(self, layout):
        index = make_index(
            sparse_rows_dataset(), layout, metric="adamic_adar", k=4
        )
        try:
            # Item 3 is new to everyone, so only user 1 turns dirty;
            # rows 0 and 2 cite her and repair in place.
            index.apply([AddRating(1, 3, 5.0)])
            stats = index.refresh()
            assert stats.dirty_users == 1
            assert stats.repaired_users > 0
            assert_exact(index, metric="adamic_adar")
            # User 2 joining item 0 reweighs it: every rater turns dirty.
            index.apply([AddRating(2, 0, 5.0)])
            stats = index.refresh()
            assert stats.dirty_users == 3
            assert_exact(index, metric="adamic_adar")
        finally:
            index.close()

    @pytest.mark.parametrize("pivot", [True, False])
    def test_row_citing_a_deferred_user_is_repaired(self, layout, pivot):
        index = make_index(sparse_rows_dataset(), layout, k=4, pivot=pivot)
        try:
            # Both of row 0's neighbours turn dirty; only user 1 is
            # selected.  Row 0 cites her and deferred user 2 and is
            # repaired: user 2's stored score is a fixed value this
            # pass (under pivot her rebuilt row offers row 0 a fresh,
            # lower copy, and the merge keeps the better one).  Row 2,
            # the deferred user herself citing user 1, is rebuilt.
            index.apply([AddRating(1, 3, 5.0), AddRating(2, 4, 5.0)])
            stats = index.refresh(dirty_subset=[1])
            assert stats.dirty_users == 1
            assert stats.deferred_users == 1
            assert stats.repaired_users == 1  # row 0
            assert stats.affected_users == 2  # user 1 and row 2
            assert index.dirty_users == frozenset({2})
            graph = index.graph
            assert graph.neighbors_of(0).tolist() == [1, 2]
            assert graph.sims_of(0)[1] == np.float32(1 / 3)  # stored
            # Her own pass repairs every row citing her: rows 0 and 1.
            stats = index.refresh()
            assert stats.repaired_users == 2
            assert stats.fallbacks == 0
            assert index.graph.sims_of(0)[1] == np.float32(1 / 4)
            assert_exact(index)
        finally:
            index.close()

    @pytest.mark.parametrize("pivot", [True, False])
    def test_fallback_beside_a_deferred_user(self, layout, pivot):
        index = make_index(reserve_rows_dataset(), layout, k=2, pivot=pivot)
        try:
            # The near users drop below row 0's boundary while FAR[1],
            # also a candidate of row 0, is deferred: row 0 falls back
            # and rescans FAR[1] at her current profile.  FAR[0] drops
            # the near users and is repaired, keeping FAR[1]'s stored
            # score until her own pass; FAR[1] herself is rebuilt.
            index.apply(lower_near_users())
            index.apply(RemoveRating(FAR[1], 1))
            stats = index.refresh(dirty_subset=NEAR)
            assert stats.repaired_users == 1  # FAR[0]
            assert stats.fallbacks == 1  # row 0
            # The near users, FAR[1] and row 0.
            assert stats.affected_users == len(NEAR) + 2
            index.refresh()  # drain
            assert_exact(index)
        finally:
            index.close()

    def test_random_streams_use_both_paths_and_stay_exact(self, layout):
        rng = np.random.default_rng(5)
        dataset = _dense_random(seed=5)
        index = make_index(dataset, layout, metric="cosine", k=3)
        try:
            repaired = fell_back = 0
            for _ in range(8):
                users = rng.integers(0, index.n_users, size=3)
                items = rng.integers(0, 12, size=3)
                values = rng.integers(0, 6, size=3).astype(float)
                index.apply(
                    [
                        AddRating(int(u), int(i), float(v))
                        for u, i, v in zip(users, items, values)
                    ]
                )
                # Every other batch also exhausts a random row's reserve.
                if rng.random() < 0.5:
                    row = int(rng.integers(0, index.n_users))
                    index.apply(exhaust_reserve_events(index, row))
                stats = index.refresh()
                repaired += stats.repaired_users
                fell_back += fallbacks(stats)
                assert_exact(index, metric="cosine")
            assert repaired > 0
            assert fell_back > 0
        finally:
            index.close()


@pytest.mark.parametrize("layout", LAYOUTS[:2], ids=LAYOUT_IDS[:2])
class TestScoringCalls:
    def test_rows_being_rebuilt_are_the_kernel_row_side(self, layout):
        """Jaccard scores a pass off the candidate product: each
        shard scores its rebuilt rows' product in one stage-B call and
        its fallbacks in one more product call — with the rebuilt rows
        (the dirty users, then the row that fell back) on the row side.
        The inbox arrives scored, so the kernel is never called, at any
        shard count."""
        index = make_index(reserve_rows_dataset(), layout, k=2)
        try:
            index.apply(lower_near_users())
            calls = {"product": [], "pairs": [], "fallback": []}
            fall_back = _Shard._fall_back
            state = threading.local()

            def falling_back(shard, rows, offers):
                state.falling_back = True
                try:
                    return fall_back(shard, rows, offers)
                finally:
                    state.falling_back = False

            def recording(name, original):
                def score(us, vs, *raw):
                    late = getattr(state, "falling_back", False)
                    calls["fallback" if late else name].append(
                        set(us.tolist())
                    )
                    return original(us, vs, *raw)

                return score

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_Shard, "_fall_back", falling_back)
                for name in ("product", "pairs"):
                    scorer = f"_score_{name}"
                    patch.setattr(
                        index, scorer, recording(name, getattr(index, scorer))
                    )
                stats = index.refresh()
            assert fallbacks(stats) == 1
            assert 0 < len(calls["product"]) <= index.n_shards
            assert not calls["pairs"]
            assert len(calls["fallback"]) == 1
            scored = calls["product"] + calls["pairs"]
            assert all(users <= set(NEAR) for users in scored)
            assert set().union(*scored) == set(NEAR)
            assert calls["fallback"] == [{0}]
            assert_exact(index)
        finally:
            index.close()

    def test_pass_keeps_no_candidacy_transpose(self, layout):
        index = make_index(full_rows_dataset(), layout, k=2)
        try:
            index.apply([RemoveRating(1, 1), RemoveRating(1, 2)])
            stats = index.refresh()
            assert stats.cache_misses > 0
            assert index._pass_candidacy is None
        finally:
            index.close()


def _dense_random(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((24, 12)) < 0.3
    users, items = np.nonzero(mask)
    values = rng.integers(1, 6, size=users.size).astype(float)
    return BipartiteDataset.from_edges(
        users, items, values, n_users=24, n_items=12
    )


class TestFailureMidRepair:
    @pytest.mark.parametrize(
        "fail_in", ["merge", "fallback", "fallback-merge"]
    )
    @pytest.mark.parametrize("layout", LAYOUTS[:2], ids=LAYOUT_IDS[:2])
    def test_metric_error_then_exact_rerun(self, layout, fail_in, monkeypatch):
        """Fail the pass's first scoring (stage B's, after the drops),
        the fallback's (after the first merge landed) or the fallback's
        merge (after its rows were cleared); the rerun finds the
        referrers a scan of the rows left behind finds, and is exact."""
        index = make_index(reserve_rows_dataset(), layout, k=2)
        try:
            index.apply(lower_near_users())
            scorers = {
                name: getattr(index, name)
                for name in ("_score_pairs", "_score_product")
            }
            fall_back = _Shard._fall_back
            state = threading.local()

            def falling_back(shard, rows, offers):
                state.falling_back = True
                return fall_back(shard, rows, offers)

            def failing(original):
                def score(*args):
                    if fail_in == "merge" or (
                        fail_in == "fallback"
                        and getattr(state, "falling_back", 0)
                    ):
                        raise RuntimeError("metric blew up")
                    return original(*args)

                return score

            merge_rows = sharding.merge_topk_rows

            def failing_merge(*args):
                if getattr(state, "falling_back", 0):
                    raise RuntimeError("merge blew up")
                return merge_rows(*args)

            monkeypatch.setattr(_Shard, "_fall_back", falling_back)
            for name, original in scorers.items():
                monkeypatch.setattr(index, name, failing(original))
            if fail_in == "fallback-merge":
                monkeypatch.setattr(
                    sharding, "merge_topk_rows", failing_merge
                )
            with pytest.raises(RuntimeError, match="blew up"):
                index.refresh()
            assert index._pass_candidacy is None
            for name, original in scorers.items():
                monkeypatch.setattr(index, name, original)
            monkeypatch.setattr(sharding, "merge_topk_rows", merge_rows)
            with split_checked() as checked:
                index.refresh()
            assert len(checked) == index.n_shards
            assert_exact(index)
        finally:
            index.close()


class _SentinelJaccard(JaccardSimilarity):
    """Jaccard that fails inside a worker while a sentinel file exists.

    ``mode="raise"`` raises on every call; ``mode="kill"`` removes the
    sentinel (one shot) and SIGKILLs its own worker process.  The parent
    process never fails, so construction and reference rebuilds work.
    """

    def __init__(self, sentinel: Path, mode: str):
        self.sentinel = str(sentinel)
        self.mode = mode
        self.parent_pid = os.getpid()

    def score_batch(self, index, us, vs):
        if os.getpid() != self.parent_pid and os.path.exists(self.sentinel):
            if self.mode == "raise":
                raise RuntimeError("metric blew up")
            try:
                os.remove(self.sentinel)
            except FileNotFoundError:
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return super().score_batch(index, us, vs)


class TestWorkerFailureMidRepair:
    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_rerun_is_exact(self, tmp_path, mode):
        sentinel = tmp_path / "fail"
        metric = _SentinelJaccard(sentinel, mode)
        index = DynamicKnnIndex(
            reserve_rows_dataset(),
            KiffConfig(k=2),
            metric=metric,
            auto_refresh=False,
            n_shards=2,
            executor="processes",
        )
        try:
            index.apply(AddRating(FAR[0], 4, 4.0))
            index.refresh()  # the pool is live now
            # The pass repairs the far rows and falls back on row 0.
            index.apply(lower_near_users())
            sentinel.touch()
            if mode == "raise":
                with pytest.raises(RuntimeError, match="blew up"):
                    index.refresh()
                sentinel.unlink()
                index.refresh()
            else:
                index.refresh()  # the pass reruns on respawned workers
                assert not sentinel.exists()
            assert_exact(index)
            # The respawned workers hold rows only: a later pass finds
            # its referrers from them and must stay exact too.
            index.apply([RemoveRating(0, 3), AddRating(2, 3, 5.0)])
            index.refresh()
            assert_exact(index)
        finally:
            index.close()
