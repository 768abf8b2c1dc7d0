"""The similarity-kernel contract: bit-identity, selection, transport.

* The one kernel must be **bit-identical** to the historical scipy
  evaluation (fancy-index + ``.multiply().sum(axis=1)``) — the oracle
  is re-implemented inline here, and the streaming parity corpus keeps
  gating the end-to-end graphs.
* The kernel's two paths (the order-preserving match path and the
  sparse-product path) each equal the oracle and the parent match-only
  kernel, kept frozen below, byte for byte; a spy pins which path each
  corpus case takes, so neither can go silently dead.
* ``kernel_backend`` accepts only ``None``/``"numpy"``; any other name
  is refused with an error naming ``"numpy"``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig
from repro.cli import build_parser
from repro.layout import compact_scores
from repro.similarity.base import ProfileIndex
from repro.similarity.engine import (
    SimilarityEngine,
    get_metric,
    score_pairs_chunked,
)
from repro.similarity.kernels import METRIC_FAMILIES, numpy_backend
from repro.similarity.kernels.numpy_backend import NumpyKernelBackend
from repro.streaming import cold_rebuild_graph
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


# ----------------------------------------------------------------------
# The parent kernel, frozen: the match-only kernel the two-path kernel
# replaced (every profile gathered once per pair, one searchsorted, a
# reduceat).  The two-path kernel must reproduce its bytes, including
# the sign of a zero score.
# ----------------------------------------------------------------------


def _frozen_gather(indptr, indices, data, users):
    starts = indptr[users].astype(np.int64, copy=False)
    counts = indptr[users + 1].astype(np.int64, copy=False) - starts
    pair_ids = np.repeat(np.arange(users.size, dtype=np.int64), counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return pair_ids, empty, (np.empty(0) if data is not None else None)
    cum = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (cum - counts), counts
    )
    items = indices[pos].astype(np.int64, copy=False)
    values = data[pos] if data is not None else None
    return pair_ids, items, values


def _frozen_segment_sum(values, pair_ids, n_pairs):
    out = np.zeros(n_pairs, dtype=np.float64)
    if values.size == 0:
        return out
    counts = np.bincount(pair_ids, minlength=n_pairs)
    nonempty = np.flatnonzero(counts)
    segment_starts = (np.cumsum(counts) - counts)[nonempty]
    out[nonempty] = np.add.reduceat(values, segment_starts)
    return out


def _frozen_match_pairs(indptr, indices, data, us, vs):
    pair_u, items_u, values_u = _frozen_gather(indptr, indices, data, us)
    pair_v, items_v, values_v = _frozen_gather(indptr, indices, data, vs)
    if items_u.size == 0 or items_v.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, (np.empty(0) if data is not None else None)
    span = np.int64(max(int(items_u.max()), int(items_v.max())) + 1)
    keys_u = pair_u * span + items_u
    keys_v = pair_v * span + items_v
    positions = np.searchsorted(keys_u, keys_v)
    clipped = np.minimum(positions, keys_u.size - 1)
    hit = keys_u[clipped] == keys_v
    matched_v = np.flatnonzero(hit)
    matched_u = positions[matched_v]
    products = None
    if data is not None:
        products = values_u[matched_u] * values_v[matched_v]
    return pair_v[matched_v], items_v[matched_v], products


def _frozen_ratio(numerators, denominators):
    out = np.zeros(numerators.shape[0], dtype=np.float64)
    mask = denominators > 0
    out[mask] = numerators[mask] / denominators[mask]
    return compact_scores(out)


class FrozenParentKernel:
    """The parent kernel's ``score_pairs``, verbatim in behaviour."""

    def score_pairs(
        self,
        metric_name,
        indptr,
        indices,
        data,
        norms,
        sizes,
        us,
        vs,
        item_weights=None,
    ):
        family = METRIC_FAMILIES[metric_name]
        n_pairs = int(us.size)
        if n_pairs == 0:
            return np.empty(0, dtype=np.float32)
        if family == "dot":
            pair_ids, _, products = _frozen_match_pairs(
                indptr, indices, data, us, vs
            )
            raw = _frozen_segment_sum(products, pair_ids, n_pairs)
            return _frozen_ratio(raw, norms[us] * norms[vs])
        pair_ids, items, _ = _frozen_match_pairs(
            indptr, indices, None, us, vs
        )
        if family == "weighted_set":
            weights = item_weights[items]
            nonzero = np.flatnonzero(weights)
            return compact_scores(
                _frozen_segment_sum(
                    weights[nonzero], pair_ids[nonzero], n_pairs
                )
            )
        raw = np.bincount(pair_ids, minlength=n_pairs).astype(np.float64)
        if metric_name == "overlap":
            return compact_scores(raw)
        if metric_name == "jaccard":
            return _frozen_ratio(raw, sizes[us] + sizes[vs] - raw)
        return _frozen_ratio(2.0 * raw, sizes[us] + sizes[vs])


def parent_scores(metric_name, index, us, vs):
    """What the parent kernel scored for these pairs."""
    metric = get_metric(metric_name)
    index.kernel = FrozenParentKernel()
    try:
        return metric.score_batch(index, us, vs)
    finally:
        del index.kernel


#: Rating-value variants: ``draw(rng, n)`` -> *n* float ratings.
RATINGS = {
    "binary": lambda rng, n: np.ones(n),
    "stars": lambda rng, n: rng.integers(1, 6, n).astype(float),
    # Integral sums that can cancel to zero.
    "votes": lambda rng, n: rng.choice([-1.0, 1.0], n),
    "half_stars": lambda rng, n: rng.integers(1, 11, n) / 2.0,
    "fractional": lambda rng, n: rng.uniform(0.1, 5.0, n),
    # Integers whose squares overflow the exact range at 30 items.
    "huge": lambda rng, n: rng.integers(2**25, 2**26, n).astype(float),
}


def rated_dataset(
    ratings, n_users=40, n_items=30, density=0.2, seed=5, n_empty=3
):
    """A random structure whose last *n_empty* users have no profile,
    carrying the *ratings* variant's values."""
    base = random_dataset(
        n_users=n_users, n_items=n_items, density=density, seed=seed
    )
    edges = base.matrix.tocoo()
    keep = edges.row < n_users - n_empty
    rng = np.random.default_rng(seed)
    return BipartiteDataset.from_edges(
        edges.row[keep],
        edges.col[keep],
        RATINGS[ratings](rng, int(keep.sum())),
        n_users=n_users,
        n_items=n_items,
    )


def pair_shape(index, shape, seed=0):
    """Pairs of one shape, sorted by row user unless *shape* says not."""
    rng = np.random.default_rng(seed)
    co = (index.binary @ index.binary.T).tocoo()
    off_diagonal = co.row != co.col
    order = np.lexsort((co.col[off_diagonal], co.row[off_diagonal]))
    us = co.row[off_diagonal][order].astype(np.int64)
    vs = co.col[off_diagonal][order].astype(np.int64)
    users = np.arange(index.n_users, dtype=np.int64)
    if shape == "refresh":  # every co-rater of every row user
        return us, vs
    if shape == "kiff":  # a couple of candidates per row user
        rated = users[index.sizes > 0]
        return (
            np.repeat(rated, 2),
            rng.integers(0, index.n_users, 2 * rated.size),
        )
    if shape == "unsorted":
        permutation = rng.permutation(us.size)
        return us[permutation], vs[permutation]
    if shape == "duplicates":
        return np.repeat(us, 2), np.repeat(vs, 2)
    if shape == "self":
        return _sorted_pairs(
            np.concatenate([us, users]), np.concatenate([vs, users])
        )
    if shape == "empty":  # empty profiles on both sides of some pairs
        empty = users[index.sizes == 0]
        others = rng.integers(0, index.n_users, empty.size)
        return _sorted_pairs(
            np.concatenate([us, empty, others]),
            np.concatenate([vs, others, empty]),
        )
    raise KeyError(shape)


def _sorted_pairs(us, vs):
    order = np.argsort(us, kind="stable")
    return us[order], vs[order]


SHAPES = ["refresh", "kiff", "unsorted", "duplicates", "self", "empty"]


@pytest.fixture
def kernel_paths(monkeypatch):
    """The paths the kernel took, one entry per call, in call order."""
    taken = []
    product_raw = numpy_backend._product_raw
    match_raw = numpy_backend._match_raw

    def spy_product(*args):
        raw = product_raw(*args)
        if raw is not None:
            taken.append("product")
        return raw

    def spy_match(*args):
        taken.append("match")
        return match_raw(*args)

    monkeypatch.setattr(numpy_backend, "_product_raw", spy_product)
    monkeypatch.setattr(numpy_backend, "_match_raw", spy_match)
    return taken


def centred_integral_dataset(zeros=False, n_users=30, n_items=24, seed=2):
    """Every profile alternates 1 and 3 over an even number of items, so
    pearson's centred values are all exactly +-1.  With *zeros*, each
    profile also rates one more item at its mean: a centred 0."""
    rng = np.random.default_rng(seed)
    extra = int(zeros)
    users, items, values = [], [], []
    for user in range(n_users):
        half = int(rng.integers(1, 5))
        chosen = rng.choice(n_items, size=2 * half + extra, replace=False)
        users += [user] * chosen.size
        items += chosen.tolist()
        values += [1.0, 3.0] * half + [2.0] * extra
    return BipartiteDataset.from_edges(
        users, items, values, n_users=n_users, n_items=n_items
    )


class TestKernelParityCorpus:
    """Both kernel paths against the oracle and the frozen parent."""

    @pytest.mark.parametrize("metric_name", METRICS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ratings", sorted(RATINGS))
    def test_equals_oracle_and_parent_bytes(
        self, ratings, shape, metric_name
    ):
        index = ProfileIndex(rated_dataset(ratings))
        us, vs = pair_shape(index, shape)
        got = get_metric(metric_name).score_batch(index, us, vs)
        assert np.array_equal(got, scipy_oracle(metric_name, index, us, vs))
        parent = parent_scores(metric_name, index, us, vs)
        assert got.tobytes() == parent.tobytes()

    @pytest.mark.parametrize(
        ("ratings", "shape", "metric_name", "path"),
        [
            ("binary", "refresh", "jaccard", "product"),
            ("stars", "refresh", "dice", "product"),
            ("fractional", "duplicates", "overlap", "product"),
            ("stars", "refresh", "cosine", "product"),
            ("votes", "refresh", "cosine", "product"),
            ("stars", "unsorted", "cosine", "product"),
            ("binary", "empty", "cosine", "product"),
            ("stars", "self", "cosine", "product"),
            ("half_stars", "refresh", "cosine", "match"),
            ("fractional", "refresh", "cosine", "match"),
            ("huge", "refresh", "cosine", "match"),
            ("stars", "refresh", "pearson", "match"),
            ("stars", "refresh", "adamic_adar", "match"),
            ("stars", "kiff", "cosine", "match"),
            ("binary", "kiff", "jaccard", "match"),
        ],
    )
    def test_path_selection(
        self, kernel_paths, ratings, shape, metric_name, path
    ):
        index = ProfileIndex(rated_dataset(ratings))
        us, vs = pair_shape(index, shape)
        get_metric(metric_name).score_batch(index, us, vs)
        assert kernel_paths == [path]

    @pytest.mark.parametrize(
        ("zeros", "path"), [(False, "product"), (True, "match")]
    )
    def test_integral_centred_pearson(self, kernel_paths, zeros, path):
        """Integral centred values take the product, unless some are
        zero: a zero factor can make a ``-0.0`` product that SpGEMM would
        sum to ``+0.0``."""
        index = ProfileIndex(centred_integral_dataset(zeros))
        us, vs = pair_shape(index, "refresh")
        got = get_metric("pearson").score_batch(index, us, vs)
        assert kernel_paths == [path]
        assert np.array_equal(got, scipy_oracle("pearson", index, us, vs))
        parent = parent_scores("pearson", index, us, vs)
        assert got.tobytes() == parent.tobytes()

    def test_votes_cancel_to_positive_zero(self, kernel_paths):
        """Co-rated pairs whose +-1 products cancel score ``+0.0`` on
        the product path, as the parent's reduceat did."""
        index = ProfileIndex(rated_dataset("votes"))
        us, vs = pair_shape(index, "refresh")
        got = get_metric("cosine").score_batch(index, us, vs)
        assert kernel_paths == ["product"]
        cancelled = got == 0
        assert cancelled.any()
        assert not np.signbit(got[cancelled]).any()

    @pytest.mark.parametrize(
        ("values", "exact"),
        [
            ([1.0, -2.0, 5.0], True),
            ([1.0, 0.0, 5.0], False),  # a zero factor could make -0.0
            ([1.0, 2.5], False),
            ([2.0**26, 1.0], False),  # 2**52 * 30 items >= 2**53
            ([float("nan")], False),
            ([float("inf")], False),
        ],
    )
    def test_exactness_check(self, values, exact):
        assert numpy_backend._exact_integers(np.array(values), 30) is exact


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

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        ("ratings", "path"),
        [("fractional", "match"), ("votes", "product")],
    )
    def test_rating_variant_stream_equals_cold_rebuild(
        self, kernel_paths, ratings, path, seed
    ):
        """Integral star streams mostly score on the product path; these
        variants pin each path under streaming (fractional ratings never
        leave the match path; +-1 votes reach the product)."""
        dataset = rated_dataset(
            ratings, n_users=18, n_items=14, density=0.15, seed=seed, n_empty=0
        )
        config = KiffConfig(k=4)
        index = DynamicKnnIndex(dataset, config, auto_refresh=False)
        drive_random_stream(index, seed, ratings=RATINGS[ratings])
        assert index.graph == cold_rebuild_graph(index.dataset, config)
        if path == "match":
            assert set(kernel_paths) == {"match"}
        else:
            assert "product" in kernel_paths

    @pytest.mark.parametrize("ratings", ["fractional", "votes"])
    def test_rating_variant_stream_under_processes(self, ratings):
        """Workers score off shared-memory views with the same kernel."""
        dataset = rated_dataset(
            ratings, n_users=18, n_items=14, density=0.15, seed=1, n_empty=0
        )
        config = KiffConfig(k=4)
        index = DynamicKnnIndex(
            dataset,
            config,
            auto_refresh=False,
            n_shards=2,
            executor="processes",
        )
        try:
            drive_random_stream(index, 1, ratings=RATINGS[ratings])
            assert index.graph == cold_rebuild_graph(index.dataset, config)
        finally:
            index.close()


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
