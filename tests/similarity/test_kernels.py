"""The similarity-kernel contract: bit-identity, selection, transport.

* The one kernel must be **bit-identical** to the historical scipy
  evaluation (fancy-index + ``.multiply().sum(axis=1)``) — the oracle
  is re-implemented inline here, and the streaming parity corpus keeps
  gating the end-to-end graphs.
* ``kernel_backend`` accepts only ``None``/``"numpy"``; any other name
  is refused with an error naming ``"numpy"``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.cli import build_parser
from repro.similarity.base import ProfileIndex
from repro.similarity.engine import (
    SimilarityEngine,
    get_metric,
    score_pairs_chunked,
)
from repro.similarity.kernels.numpy_backend import NumpyKernelBackend
from repro.streaming import cold_rebuild_graph, sharding
from tests.conftest import random_dataset
from tests.streaming.test_parity import drive_random_stream

METRICS = ["cosine", "jaccard", "dice", "overlap", "adamic_adar", "pearson"]


def scipy_oracle(metric_name, index, us, vs):
    """The historical scipy evaluation plus the float32 score boundary.

    Formulas run verbatim in float64; the single ``astype(float32)`` on
    the way out mirrors the kernel finalize boundary (``repro.layout``),
    so bit-identity still pins the full float64 evaluation order.
    """

    def pairwise_dot(matrix, other):
        return np.asarray(
            matrix[us].multiply(other[vs]).sum(axis=1)
        ).ravel()

    if metric_name == "cosine":
        dots = pairwise_dot(index.matrix, index.matrix)
        denominators = index.norms[us] * index.norms[vs]
    elif metric_name == "pearson":
        matrix, norms = index.centered
        dots = pairwise_dot(matrix, matrix)
        denominators = norms[us] * norms[vs]
    elif metric_name == "adamic_adar":
        return pairwise_dot(index.adamic_adar_matrix, index.binary).astype(
            np.float32
        )
    else:
        intersections = pairwise_dot(index.binary, index.binary)
        if metric_name == "overlap":
            return intersections.astype(np.float32)
        if metric_name == "jaccard":
            denominators = index.sizes[us] + index.sizes[vs] - intersections
        else:  # dice
            intersections = 2.0 * intersections
            denominators = (index.sizes[us] + index.sizes[vs]).astype(
                np.float64
            )
        dots = intersections
    out = np.zeros(len(us), dtype=np.float64)
    mask = denominators > 0
    out[mask] = dots[mask] / denominators[mask]
    return out.astype(np.float32)


def random_pairs(n_users, n_pairs=400, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n_users, n_pairs),
        rng.integers(0, n_users, n_pairs),
    )


@pytest.fixture(params=[False, True], ids=["binary", "rated"])
def fixture_index(request):
    dataset = random_dataset(
        n_users=50, n_items=30, density=0.15, seed=7, ratings=request.param
    )
    return ProfileIndex(dataset)


class TestNumpyBitIdentity:
    """The numpy backend reproduces the scipy path bit for bit."""

    @pytest.mark.parametrize("metric_name", METRICS)
    def test_score_batch_equals_scipy_oracle(self, fixture_index, metric_name):
        metric = get_metric(metric_name)
        us, vs = random_pairs(fixture_index.n_users)
        got = metric.score_batch(fixture_index, us, vs)
        expected = scipy_oracle(metric_name, fixture_index, us, vs)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("metric_name", METRICS)
    def test_long_intersections_stay_bit_identical(self, metric_name):
        # >128 common items per pair would expose any pairwise-summation
        # reordering (numpy's reduce optimisation) — reduceat must stay
        # sequential like scipy's row sum.
        dataset = random_dataset(
            n_users=8, n_items=600, density=0.6, seed=3, ratings=True
        )
        index = ProfileIndex(dataset)
        us = np.repeat(np.arange(8), 8)
        vs = np.tile(np.arange(8), 8)
        metric = get_metric(metric_name)
        got = metric.score_batch(index, us, vs)
        assert np.array_equal(got, scipy_oracle(metric_name, index, us, vs))

    @pytest.mark.parametrize("metric_name", METRICS)
    def test_batch_agrees_with_pair_and_block(
        self, fixture_index, metric_name
    ):
        metric = get_metric(metric_name)
        us, vs = random_pairs(fixture_index.n_users, n_pairs=120, seed=1)
        batch = metric.score_batch(fixture_index, us, vs)
        pairs = np.array(
            [
                metric.score_pair(fixture_index, int(u), int(v))
                for u, v in zip(us, vs)
            ]
        )
        block = metric.score_block(fixture_index, us)
        block_vals = block[np.arange(us.size), vs]
        # score_pair/score_block stay float64 (they are internal paths);
        # batch carries the at-rest float32 cast, so compare after
        # pushing the raw values through the same boundary.
        assert batch == pytest.approx(
            pairs.astype(np.float32), rel=1e-6, abs=1e-7
        )
        assert batch == pytest.approx(
            block_vals.astype(np.float32), rel=1e-6, abs=1e-7
        )

    def test_empty_and_self_pairs(self, fixture_index):
        metric = get_metric("cosine")
        empty = np.empty(0, dtype=np.int64)
        assert metric.score_batch(fixture_index, empty, empty).size == 0
        us = np.arange(fixture_index.n_users)
        got = metric.score_batch(fixture_index, us, us)
        expected = scipy_oracle("cosine", fixture_index, us, us)
        assert np.array_equal(got, expected)

    def test_empty_profile_pairs_score_zero(self):
        dataset = random_dataset(
            n_users=30, n_items=10, density=0.05, seed=11
        )
        index = ProfileIndex(dataset)
        empty_users = np.flatnonzero(index.sizes == 0)
        assert empty_users.size, "fixture needs at least one empty profile"
        us = np.repeat(empty_users, 3)
        vs = np.tile(empty_users[:1], us.size)
        for metric_name in METRICS:
            got = get_metric(metric_name).score_batch(index, us, vs)
            assert np.array_equal(got, np.zeros(us.size))


class TestNumpyStreamParity:
    """End-to-end: an explicit ``kernel_backend="numpy"`` keeps parity."""

    @pytest.mark.parametrize("seed", range(4))
    def test_stream_equals_cold_rebuild(self, seed):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        config = KiffConfig(k=4, kernel_backend="numpy")
        index = DynamicKnnIndex(dataset, config, auto_refresh=False)
        drive_random_stream(index, seed)
        assert index.graph == cold_rebuild_graph(index.dataset, config)


@pytest.mark.parametrize(
    ("name", "accepted"),
    [
        (None, True),
        ("numpy", True),
        ("numba", False),
        ("torch", False),
        ("bogus", False),
    ],
)
def test_kernel_backend_accepts_only_numpy(name, accepted):
    dataset = random_dataset(n_users=8, n_items=6, seed=1)
    if accepted:
        KiffConfig(kernel_backend=name)
        SimilarityEngine(dataset, kernel_backend=name)
        return
    with pytest.raises(ValueError, match="'numpy'"):
        KiffConfig(kernel_backend=name)
    with pytest.raises(ValueError, match="'numpy'"):
        SimilarityEngine(dataset, kernel_backend=name)


class TestBackendSelection:
    """What is left of kernel selection: one shared numpy kernel."""

    def test_default_is_numpy(self):
        first = ProfileIndex(random_dataset(n_users=5, seed=1))
        second = ProfileIndex(random_dataset(n_users=7, seed=2))
        assert isinstance(first.kernel, NumpyKernelBackend)
        assert first.kernel is second.kernel is ProfileIndex.kernel

    def test_environment_variable_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "torch")
        dataset = random_dataset(n_users=8, n_items=6, seed=1)
        assert KiffConfig().kernel_backend is None
        engine = SimilarityEngine(dataset)
        assert engine.index.kernel is ProfileIndex.kernel

    def test_cli_has_no_kernel_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["stream", "--kernel-backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err

    def test_engine_rebind_preserves_backend(self):
        dataset = random_dataset(n_users=10, n_items=8, seed=3)
        engine = SimilarityEngine(dataset, kernel_backend="numpy")
        engine.rebind(random_dataset(n_users=10, n_items=8, seed=4))
        assert engine.index.kernel is ProfileIndex.kernel
        engine.rebind(
            random_dataset(n_users=10, n_items=8, seed=5),
            dirty_users=np.arange(10),
        )
        assert engine.index.kernel is ProfileIndex.kernel


class TestScorePairsChunked:
    def test_chunked_matches_single_batch(self, fixture_index):
        metric = get_metric("cosine")
        us, vs = random_pairs(fixture_index.n_users, n_pairs=257, seed=9)
        whole = metric.score_batch(fixture_index, us, vs)
        chunked = score_pairs_chunked(
            metric, fixture_index, us, vs, batch_size=64
        )
        assert np.array_equal(whole, chunked)

    def test_chunks_equal_the_scipy_oracle(self, fixture_index):
        """Every metric, chunked: equal to the oracle (which, like
        ``TestNumpyBitIdentity``, does not reproduce the sign of a zero)
        and bit-identical to one unchunked kernel call."""
        us, vs = random_pairs(fixture_index.n_users, n_pairs=50, seed=4)
        for metric_name in METRICS:
            metric = get_metric(metric_name)
            out = score_pairs_chunked(
                metric, fixture_index, us, vs, batch_size=16
            )
            expected = scipy_oracle(metric_name, fixture_index, us, vs)
            assert np.array_equal(out, expected), metric_name
            whole = metric.score_batch(fixture_index, us, vs)
            assert out.tobytes() == whole.tobytes(), metric_name

    def test_sharding_imports_the_one_loop(self):
        assert sharding.score_pairs_chunked is score_pairs_chunked


class TestSharedArraysFlag:
    def test_binary_dataset_ships_flag_not_data(self):
        index = ProfileIndex(random_dataset(n_users=20, n_items=10, seed=6))
        arrays = index.to_shared_arrays()
        assert "dataset_data" not in arrays
        assert "dataset_data_all_ones" in arrays
        assert arrays["dataset_data_all_ones"].nbytes == 1

    def test_rated_dataset_ships_data(self):
        index = ProfileIndex(
            random_dataset(n_users=20, n_items=10, seed=6, ratings=True)
        )
        arrays = index.to_shared_arrays()
        assert "dataset_data_all_ones" not in arrays
        assert arrays["dataset_data"] is index.matrix.data

    @pytest.mark.parametrize("ratings", [False, True])
    def test_round_trip_rebuilds_identical_scores(self, ratings):
        index = ProfileIndex(
            random_dataset(n_users=20, n_items=10, seed=8, ratings=ratings)
        )
        rebuilt = ProfileIndex.from_shared_arrays(index.to_shared_arrays())
        assert np.array_equal(
            rebuilt.matrix.toarray(), index.matrix.toarray()
        )
        if not ratings:
            # Re-derived ones are shared with the binarised twin rather
            # than allocated twice (scipy may rewrap the buffer in a
            # fresh ndarray view, so compare memory, not identity).
            assert np.shares_memory(rebuilt.binary.data, rebuilt.matrix.data)
        us, vs = random_pairs(index.n_users, n_pairs=60, seed=8)
        for metric_name in METRICS:
            metric = get_metric(metric_name)
            assert np.array_equal(
                metric.score_batch(rebuilt, us, vs),
                metric.score_batch(index, us, vs),
            )


class TestAdamicAdarWeights:
    def test_weights_match_matrix_cache(self):
        index = ProfileIndex(
            random_dataset(n_users=25, n_items=12, density=0.3, seed=10)
        )
        weights = index.adamic_adar_weights
        aa = index.adamic_adar_matrix
        degrees = np.asarray(index.binary.sum(axis=0)).ravel()
        expected = np.zeros(index.n_items)
        mask = degrees >= 2
        expected[mask] = 1.0 / np.log(degrees[mask])
        assert np.array_equal(weights, expected)
        # The eliminated (weight-zero) entries are exactly the ones
        # missing from the weighted matrix.
        assert aa.nnz == int(np.count_nonzero(weights[index.matrix.indices]))

    def test_incremental_update_keeps_weights_exact(self):
        dataset = random_dataset(
            n_users=25, n_items=12, density=0.3, seed=12
        )
        index = ProfileIndex(dataset)
        index.adamic_adar_weights  # prime the caches
        # Rewrite one user's profile; per the documented non-profile-
        # local semantics every rater of the touched items is dirtied.
        from repro.streaming import AddRating

        streaming = DynamicKnnIndex(
            dataset,
            KiffConfig(k=3),
            metric="adamic_adar",
            auto_refresh=False,
            build=False,
        )
        streaming.apply(AddRating(0, 3, 1.0))
        new_dataset = streaming.builder.snapshot()
        dirty = set(streaming._dirty)
        index.update(new_dataset, dirty)
        fresh = ProfileIndex(new_dataset)
        assert np.array_equal(
            index.adamic_adar_weights, fresh.adamic_adar_weights
        )
        assert np.array_equal(
            index.adamic_adar_matrix.toarray(),
            fresh.adamic_adar_matrix.toarray(),
        )
