"""Unit tests for the instrumented similarity engine."""

import numpy as np
import pytest

from repro.instrumentation import PhaseTimer, SimilarityCounter
from repro.similarity import (
    SimilarityEngine,
    SimilarityMetric,
    get_metric,
    metric_names,
    register_metric,
)
from repro.similarity.engine import score_pairs_chunked


class TestMetricRegistry:
    def test_builtin_names(self):
        assert {"cosine", "jaccard", "adamic_adar", "overlap"} <= set(
            metric_names()
        )

    def test_get_metric_by_name(self):
        assert get_metric("cosine").name == "cosine"

    def test_get_metric_passthrough(self):
        metric = get_metric("jaccard")
        assert get_metric(metric) is metric

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError, match="unknown metric"):
            get_metric("levenshtein")

    def test_register_custom_metric(self, toy_dataset):
        from repro.similarity.overlap import OverlapSimilarity

        class DoubledOverlap(OverlapSimilarity):
            name = "doubled_overlap"

            def score_pair(self, index, u, v):
                return 2.0 * super().score_pair(index, u, v)

            def score_batch(self, index, us, vs):
                return 2.0 * super().score_batch(index, us, vs)

            def score_block(self, index, us):
                return 2.0 * super().score_block(index, us)

        register_metric(DoubledOverlap)
        engine = SimilarityEngine(toy_dataset, metric="doubled_overlap")
        assert engine.pair(0, 1) == 2.0

    def test_register_rejects_default_name(self):
        class Nameless(SimilarityMetric):
            def score_pair(self, index, u, v):  # pragma: no cover
                return 0.0

            def score_batch(self, index, us, vs):  # pragma: no cover
                return np.zeros(len(us))

            def score_block(self, index, us):  # pragma: no cover
                return np.zeros((len(us), 1))

        with pytest.raises(ValueError, match="name"):
            register_metric(Nameless)


class TestCounting:
    def test_pair_counts_one(self, toy_engine):
        toy_engine.pair(0, 1)
        assert toy_engine.counter.evaluations == 1

    def test_batch_counts_length(self, toy_engine):
        toy_engine.batch([0, 0, 1], [1, 2, 2])
        assert toy_engine.counter.evaluations == 3

    def test_empty_batch_counts_zero(self, toy_engine):
        out = toy_engine.batch([], [])
        assert out.size == 0
        assert toy_engine.counter.evaluations == 0

    def test_block_counts_all_but_self(self, toy_engine):
        toy_engine.block(np.array([0, 1]))
        n = toy_engine.n_users
        assert toy_engine.counter.evaluations == 2 * (n - 1)

    def test_block_count_disabled(self, toy_engine):
        toy_engine.block(np.array([0]), count=False)
        assert toy_engine.counter.evaluations == 0

    def test_shared_counter(self, toy_dataset):
        counter = SimilarityCounter()
        a = SimilarityEngine(toy_dataset, counter=counter)
        b = SimilarityEngine(toy_dataset, counter=counter)
        a.pair(0, 1)
        b.pair(0, 1)
        assert counter.evaluations == 2

    def test_scan_rate(self, toy_engine):
        toy_engine.batch([0, 0, 0], [1, 2, 3])
        # 3 evaluations over 4*3/2 = 6 possible pairs.
        assert toy_engine.scan_rate() == pytest.approx(0.5)


class TestBatching:
    def test_chunked_batch_matches_unchunked(self, wiki_engine, tiny_wikipedia):
        rng = np.random.default_rng(0)
        us = rng.integers(0, tiny_wikipedia.n_users, size=500)
        vs = rng.integers(0, tiny_wikipedia.n_users, size=500)
        small = SimilarityEngine(tiny_wikipedia, batch_size=64)
        np.testing.assert_allclose(
            wiki_engine.batch(us, vs), small.batch(us, vs)
        )

    def test_mismatched_lengths_raise(self, toy_engine):
        with pytest.raises(ValueError, match="equal length"):
            toy_engine.batch([0, 1], [1])

    def test_invalid_batch_size_raises(self, toy_dataset):
        with pytest.raises(ValueError, match="batch_size"):
            SimilarityEngine(toy_dataset, batch_size=0)


class TestTiming:
    def test_similarity_time_accumulates(self, toy_engine):
        toy_engine.batch([0] * 100, [1] * 100)
        assert toy_engine.timer.get("similarity") > 0

    def test_external_timer_used(self, toy_dataset):
        timer = PhaseTimer()
        engine = SimilarityEngine(toy_dataset, timer=timer)
        engine.pair(0, 1)
        assert timer.get("similarity") > 0


class TestRebind:
    def test_rebind_swaps_dataset_and_index(self, toy_dataset, rated_dataset):
        engine = SimilarityEngine(toy_dataset)
        old_index = engine.index
        engine.rebind(rated_dataset)
        assert engine.dataset is rated_dataset
        assert engine.index is not old_index
        assert engine.n_users == rated_dataset.n_users

    def test_rebind_keeps_instrumentation(self, toy_dataset, rated_dataset):
        engine = SimilarityEngine(toy_dataset)
        engine.pair(0, 1)
        engine.rebind(rated_dataset)
        engine.pair(0, 1)
        assert engine.counter.evaluations == 2
        assert engine.timer.get("similarity") > 0

    def test_rebind_scores_against_new_data(self, toy_dataset):
        from repro.datasets import BipartiteDataset

        engine = SimilarityEngine(toy_dataset, metric="overlap")
        assert engine.pair(2, 3) == 1.0  # Carl and Dave share 'shopping'
        grown = BipartiteDataset.from_profiles(
            [{0: 1.0, 1: 1.0}, {1: 1.0, 2: 1.0}, {3: 1.0}, {0: 1.0}],
            n_items=4,
        )
        engine.rebind(grown)
        assert engine.pair(2, 3) == 0.0  # Dave switched to the book


@pytest.mark.parametrize("size", [127, 128, 129, 3 * 128 + 7])
def test_batch_is_the_chunk_loop(tiny_wikipedia, size):
    """``engine.batch`` scores through ``score_pairs_chunked``.

    Around the one-chunk boundary and across several chunks, the
    chunked engine result equals a single unchunked call bit for bit,
    and every pair is counted once.
    """
    rng = np.random.default_rng(5)
    us = rng.integers(0, tiny_wikipedia.n_users, size=size)
    vs = rng.integers(0, tiny_wikipedia.n_users, size=size)
    engine = SimilarityEngine(tiny_wikipedia, batch_size=128)
    expected = score_pairs_chunked(
        engine.metric, engine.index, us, vs, batch_size=size
    )
    got = engine.batch(us, vs)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert engine.counter.evaluations == size


class TestChunkBoundary:
    """How ``score_pairs_chunked`` splits a request into metric calls."""

    @staticmethod
    def recorded_sizes(engine, monkeypatch):
        sizes = []
        original = engine.metric.score_batch

        def score_batch(index, us, vs):
            sizes.append(len(us))
            return original(index, us, vs)

        monkeypatch.setattr(engine.metric, "score_batch", score_batch)
        return sizes

    def test_single_chunk_is_one_metric_call(self, tiny_wikipedia, monkeypatch):
        engine = SimilarityEngine(tiny_wikipedia, batch_size=16)
        sizes = self.recorded_sizes(engine, monkeypatch)
        out = engine.batch(np.arange(16), np.arange(16) + 1)
        assert out.size == 16
        assert sizes == [16]

    def test_one_extra_pair_opens_a_second_chunk(
        self, tiny_wikipedia, monkeypatch
    ):
        engine = SimilarityEngine(tiny_wikipedia, batch_size=16)
        sizes = self.recorded_sizes(engine, monkeypatch)
        engine.batch(np.arange(17), np.arange(17) + 1)
        assert sizes == [16, 1]
        assert engine.counter.evaluations == 17

    @pytest.mark.parametrize("size", [4, 9])
    def test_float64_metric_is_cast_to_the_at_rest_width(
        self, toy_dataset, size
    ):
        """A custom metric returning float64 is narrowed once, whether
        the request fits one chunk (4 pairs) or spans three (9 pairs)."""
        from repro.layout import SCORE_DTYPE

        overlap = get_metric("overlap")

        class ThirdOverlap(SimilarityMetric):
            name = "third_overlap_float64"

            def score_pair(self, index, u, v):  # pragma: no cover
                return overlap.score_pair(index, u, v) / 3.0

            def score_batch(self, index, us, vs):
                out = overlap.score_batch(index, us, vs) / 3.0
                return out.astype(np.float64)

            def score_block(self, index, us):  # pragma: no cover
                return overlap.score_block(index, us) / 3.0

        engine = SimilarityEngine(
            toy_dataset, metric=ThirdOverlap(), batch_size=4
        )
        rng = np.random.default_rng(size)
        us = rng.integers(0, toy_dataset.n_users, size=size)
        vs = rng.integers(0, toy_dataset.n_users, size=size)
        got = engine.batch(us, vs)
        expected = ThirdOverlap().score_batch(engine.index, us, vs)
        assert got.dtype == SCORE_DTYPE
        assert got.tobytes() == expected.astype(SCORE_DTYPE).tobytes()


def test_close_is_an_idempotent_no_op(tiny_wikipedia):
    """``close`` is kept for callers that close their engines; the
    engine holds nothing to release and stays usable."""
    engine = SimilarityEngine(tiny_wikipedia, batch_size=16)
    engine.close()
    expected = engine.batch(np.arange(17), np.arange(17) + 1)
    engine.close()
    engine.close()
    got = engine.batch(np.arange(17), np.arange(17) + 1)
    assert got.tobytes() == expected.tobytes()
    assert engine.counter.evaluations == 34


def test_kiff_graph_is_independent_of_batch_size(tiny_wikipedia):
    from repro import KiffConfig, kiff

    default = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=8))
    chunked = kiff(
        SimilarityEngine(tiny_wikipedia, batch_size=128), KiffConfig(k=8)
    )
    assert default.graph == chunked.graph
    assert default.graph.sims.tobytes() == chunked.graph.sims.tobytes()
