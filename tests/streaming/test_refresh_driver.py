"""One index class and one refresh driver.

``DynamicKnnIndex`` takes the shard count and the executor, and
``ShardedKnnIndex`` is the same class with partitioned defaults; both
run the same driver over the same per-shard stages, and the executor
only carries the stage calls.  So a one-shard ``ShardedKnnIndex`` must
match the flat index, and a two-shard ``DynamicKnnIndex`` the two-shard
``ShardedKnnIndex``, not just in the graph but in every pass's work —
whichever executor carries it — and the benchmark's outside-in trace
must see exactly one span per entry-point call on either class.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import DynamicKnnIndex, KiffConfig, ShardedKnnIndex
from repro.streaming import cold_rebuild_graph, ratings_batch
from tests.conftest import random_dataset
from tests.streaming.test_sharding import drive, sharded_events

#: The RefreshStats fields that count work (wall time excluded).
WORK_FIELDS = (
    "affected_users",
    "repaired_users",
    "evaluations",
    "changes",
    "cache_hits",
    "cache_misses",
)


def work_log(index):
    return [
        tuple(getattr(stats, name) for name in WORK_FIELDS)
        for stats in index.refresh_log
    ]


class TestOnePairRule:
    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("seed", range(2))
    def test_pivot_sets_no_refresh_work(self, seed, n_shards):
        """A refresh, and the index's own build, score each pair once
        and offer it both ways whatever ``pivot`` says; only ``kiff()``
        honours it."""
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events, refresh_after = sharded_events(seed, 18)
        pivoted, ordered = (
            drive(
                DynamicKnnIndex(
                    dataset,
                    KiffConfig(k=4, pivot=pivot),
                    auto_refresh=False,
                    n_shards=n_shards,
                ),
                events,
                refresh_after,
            )
            for pivot in (True, False)
        )
        assert pivoted.graph == ordered.graph  # ids AND sims, exact
        assert work_log(pivoted) == work_log(ordered)  # evaluations too
        assert pivoted.initial_evaluations == ordered.initial_evaluations


class TestOneShardIsTheFlatIndex:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_graph_and_same_work_per_pass(self, seed, pivot, executor):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events, refresh_after = sharded_events(seed, 18)
        config = KiffConfig(k=4, pivot=pivot)
        flat = drive(
            DynamicKnnIndex(dataset, config, auto_refresh=False),
            events,
            refresh_after,
        )
        sharded = ShardedKnnIndex(
            dataset,
            config,
            auto_refresh=False,
            n_shards=1,
            executor=executor,
        )
        try:
            drive(sharded, events, refresh_after)
            assert sharded.graph == flat.graph  # ids AND sims, exact
            assert work_log(sharded) == work_log(flat)
            assert sharded.initial_evaluations == flat.initial_evaluations
        finally:
            sharded.close()
            flat.close()

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("seed", range(2))
    def test_two_shard_base_class_is_the_sharded_class(self, seed, executor):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events, refresh_after = sharded_events(seed, 18)
        config = KiffConfig(k=4)
        indexes = [
            cls(
                dataset,
                config,
                auto_refresh=False,
                n_shards=2,
                executor=executor,
            )
            for cls in (DynamicKnnIndex, ShardedKnnIndex)
        ]
        try:
            base, sharded = (
                drive(index, events, refresh_after) for index in indexes
            )
            assert base.graph == sharded.graph  # ids AND sims, exact
            assert work_log(base) == work_log(sharded)
            assert base.graph == cold_rebuild_graph(base.dataset, config)
        finally:
            for index in indexes:
                index.close()


def _load_tracing():
    path = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedRefreshSpans:
    def test_one_refresh_span_per_pass_on_both_classes(self):
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        tracing.install_layer_wrappers(tracer)
        try:
            dataset = random_dataset(
                n_users=24, n_items=16, density=0.2, seed=4, ratings=True
            )
            indexes = (
                DynamicKnnIndex(dataset, KiffConfig(k=3), auto_refresh=False),
                ShardedKnnIndex(
                    dataset,
                    KiffConfig(k=3),
                    auto_refresh=False,
                    n_shards=2,
                    executor="serial",
                ),
            )
            for passes, index in enumerate(indexes, start=1):
                index.apply(ratings_batch([0, 5], [2, 2], [4.0, 1.0]))
                tracer.set_active(True)
                index.refresh()
                tracer.set_active(False)
                summary = tracer.summary()
                assert summary["streaming.refresh"]["calls"] == passes
                assert summary["graph.merge"]["calls"] >= passes
                index.close()
        finally:
            tracer.uninstall()

    def test_one_span_per_entry_point_call_on_both_classes(self, tmp_path):
        """The sharded class's entry points delegate without super(),
        so a wrapper on each class never double-counts a call."""
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        tracing.install_layer_wrappers(tracer)
        names = (
            "streaming.apply",
            "persistence.checkpoint",
            "persistence.restore",
        )
        try:
            dataset = random_dataset(
                n_users=24, n_items=16, density=0.2, seed=4, ratings=True
            )
            classes = (
                (DynamicKnnIndex, {}),
                (ShardedKnnIndex, {"executor": "serial"}),
            )
            for calls, (cls, kwargs) in enumerate(classes, start=1):
                index = cls(
                    dataset, KiffConfig(k=3), auto_refresh=False, **kwargs
                )
                state = tmp_path / cls.__name__
                tracer.set_active(True)
                index.apply(ratings_batch([0, 5], [2, 2], [4.0, 1.0]))
                index.checkpoint(state)
                restored = cls.restore(state)
                tracer.set_active(False)
                summary = tracer.summary()
                for name in names:
                    assert summary[name]["calls"] == calls, name
                restored.close()
                index.close()
        finally:
            tracer.uninstall()
