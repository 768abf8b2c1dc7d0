"""The similarity engine: instrumented, chunked metric evaluation.

Every algorithm (KIFF, NN-Descent, HyRec, brute force) evaluates
similarities exclusively through a :class:`SimilarityEngine`, which

* counts every evaluation into a :class:`SimilarityCounter` (the paper's
  scan-rate bookkeeping),
* charges the wall-time to the ``similarity`` phase of a
  :class:`PhaseTimer` (the Figures 1/5 breakdown),
* chunks large batch requests so sparse row slicing never materialises
  gigabyte intermediates.

Because all competitors share this engine, relative costs between
algorithms are apples-to-apples — the property the paper's comparative
claims rest on.
"""

from __future__ import annotations

import numpy as np

from ..datasets.bipartite import BipartiteDataset
from ..instrumentation.counters import SimilarityCounter
from ..layout import SCORE_DTYPE, compact_scores
from ..instrumentation.timers import PhaseTimer
from .adamic_adar import AdamicAdarSimilarity
from .base import ProfileIndex, SimilarityMetric
from .cosine import CosineSimilarity
from .dice import DiceSimilarity
from .jaccard import JaccardSimilarity
from .kernels.numpy_backend import (
    check_kernel_backend,
    exact_integers,
    finalize,
)
from .overlap import OverlapSimilarity
from .pearson import PearsonSimilarity

__all__ = [
    "SimilarityEngine",
    "get_metric",
    "metric_names",
    "product_scoring",
    "register_metric",
    "score_pairs_chunked",
    "score_product",
]

_METRICS: dict[str, type[SimilarityMetric]] = {
    CosineSimilarity.name: CosineSimilarity,
    JaccardSimilarity.name: JaccardSimilarity,
    AdamicAdarSimilarity.name: AdamicAdarSimilarity,
    OverlapSimilarity.name: OverlapSimilarity,
    DiceSimilarity.name: DiceSimilarity,
    PearsonSimilarity.name: PearsonSimilarity,
}


def register_metric(metric_class: type[SimilarityMetric]) -> type[SimilarityMetric]:
    """Register a custom metric class (usable as a decorator).

    KIFF is "generic, in the sense that it can be applied to any kind of
    nodes, items, or similarity metrics" — this hook is how users plug
    their own metric in by name.
    """
    name = metric_class.name
    if not name or name == "abstract":
        raise ValueError("metric classes must define a non-default 'name'")
    _METRICS[name] = metric_class
    return metric_class


def metric_names() -> list[str]:
    """Registered metric names."""
    return sorted(_METRICS)


def get_metric(metric: str | SimilarityMetric) -> SimilarityMetric:
    """Resolve a metric instance from a name or pass an instance through."""
    if isinstance(metric, SimilarityMetric):
        return metric
    try:
        return _METRICS[metric]()
    except KeyError:
        raise KeyError(
            f"unknown metric {metric!r}; registered metrics: {metric_names()}"
        ) from None


def score_pairs_chunked(
    metric: SimilarityMetric,
    index: ProfileIndex,
    us: np.ndarray,
    vs: np.ndarray,
    batch_size: int,
) -> np.ndarray:
    """Score parallel pair arrays in chunks of at most *batch_size*.

    The one scoring loop: :meth:`SimilarityEngine.batch` wraps it with
    counting and timing, and the shard refresh calls it bare (in
    process and in worker processes) so concurrent shards never race on
    a shared counter; the refresh driver adds the evaluation totals
    after the fan-in.  Chunk boundaries cannot change values, since
    every metric scores pairs independently.

    The output is written into one preallocated array at the at-rest
    score width: the cast-once score boundary, which also holds custom
    registered metrics that return float64.
    """
    if us.size == 0:
        return np.empty(0, dtype=SCORE_DTYPE)
    if us.size <= batch_size:
        return compact_scores(metric.score_batch(index, us, vs))
    out = np.empty(us.size, dtype=SCORE_DTYPE)
    for start in range(0, us.size, batch_size):
        stop = min(start + batch_size, us.size)
        out[start:stop] = metric.score_batch(
            index, us[start:stop], vs[start:stop]
        )
    return out


#: Built-in metrics whose raw pair statistic is a candidacy product's
#: value: the dot product over the valued ratings, or the intersection
#: size over the binarised ones.  Keyed by exact type, so subclasses and
#: registered metrics (which may score differently) are never matched.
_PRODUCT_OPERANDS: dict[type[SimilarityMetric], str] = {
    CosineSimilarity: "valued",
    JaccardSimilarity: "binary",
    DiceSimilarity: "binary",
    OverlapSimilarity: "binary",
}


def product_scoring(
    metric: SimilarityMetric,
    dataset: BipartiteDataset,
    min_rating: float | None,
) -> str | None:
    """Whether the candidacy product of *dataset* also scores *metric*.

    Returns the product's operand — ``"valued"`` (``R[rows] @ Rᵀ``
    over the ratings, whose values are the dot products) or
    ``"binary"`` (the binarised product, whose values are the
    intersection sizes) — or ``None`` when the pairs must go through
    :func:`score_pairs_chunked`.  Either operand has the candidate
    sets' structure only when *min_rating* is ``None`` (every rated
    item counts).  The set metrics then always qualify: counts are
    exact.  Cosine also needs every value to be a positive integer
    with ``max**2 * n_items < 2**53`` — the kernel's exactness rule
    (:func:`~repro.similarity.kernels.numpy_backend.exact_integers`),
    under which any summation order gives the same double, plus
    positivity, since SpGEMM drops a sum that cancels to zero and
    with it a real candidate.
    """
    operand = _PRODUCT_OPERANDS.get(type(metric))
    if operand is None or min_rating is not None:
        return None
    if operand == "valued":
        values = dataset.matrix.data
        if not (
            exact_integers(values, dataset.n_items) and (values > 0).all()
        ):
            return None
    return operand


def score_product(
    metric: SimilarityMetric,
    index: ProfileIndex,
    us: np.ndarray,
    vs: np.ndarray,
    raw: np.ndarray,
) -> np.ndarray:
    """Scores of pairs whose raw statistics *raw* a candidacy product holds.

    Only for a pass :func:`product_scoring` accepted: *raw* are the
    product's values for the pairs ``(us[j], vs[j])``, and the kernel's
    one metric formula
    (:func:`~repro.similarity.kernels.numpy_backend.finalize`) turns
    them into the float32 scores :func:`score_pairs_chunked` returns
    for the same pairs, bit for bit.
    """
    return finalize(metric.name, raw, index.norms, index.sizes, us, vs)


class SimilarityEngine:
    """Instrumented similarity evaluation over one dataset.

    Parameters
    ----------
    dataset:
        The bipartite dataset whose user profiles define the metric space.
    metric:
        Metric name (``"cosine"``, ``"jaccard"``, ``"dice"``,
        ``"overlap"``, ``"adamic_adar"``, ``"pearson"``, or a
        :func:`register_metric` name) or a :class:`SimilarityMetric`
        instance.
    counter, timer:
        Optional shared instrumentation; fresh private instances are
        created when omitted.
    batch_size:
        Maximum number of pairs evaluated per sparse-slicing chunk.
    index:
        A prebuilt :class:`ProfileIndex` of *dataset* (built when
        omitted).
    kernel_backend:
        ``None`` or ``"numpy"``: both select the one similarity kernel
        (:mod:`repro.similarity.kernels`).  Anything else raises
        :class:`ValueError`.
    """

    def __init__(
        self,
        dataset: BipartiteDataset,
        metric: str | SimilarityMetric = "cosine",
        counter: SimilarityCounter | None = None,
        timer: PhaseTimer | None = None,
        batch_size: int = 131_072,
        index: ProfileIndex | None = None,
        kernel_backend: str | None = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        check_kernel_backend(kernel_backend)
        self.dataset = dataset
        self.metric = get_metric(metric)
        self.counter = counter if counter is not None else SimilarityCounter()
        self.timer = timer if timer is not None else PhaseTimer()
        self.batch_size = batch_size
        self.index = index if index is not None else ProfileIndex(dataset)

    @property
    def n_users(self) -> int:
        return self.dataset.n_users

    def rebind(self, dataset: BipartiteDataset, dirty_users=None) -> None:
        """Point the engine at a new (possibly grown) dataset.

        The streaming subsystem mutates its rating store and periodically
        snapshots it; ``rebind`` swaps the snapshot in and refreshes the
        :class:`ProfileIndex` (norms, profile sizes, Adamic-Adar weights
        all depend on the data).  With ``dirty_users`` given, the index
        is updated **in place** via :meth:`ProfileIndex.update`, which
        recomputes only the dirty users' state — the caller guarantees
        every other user's profile is unchanged.  Without it, a full
        index rebuild runs.

        Custom index contract: a caller-supplied :class:`ProfileIndex`
        subclass is preserved — full rebuilds reconstruct it via
        ``type(self.index)``, so subclasses must accept the base
        ``(dataset, maintenance=...)`` constructor signature (a bare
        ``(dataset)`` constructor is tolerated), and subclasses holding
        extra derived state must override ``update`` to refresh it.

        The counter and timer are deliberately kept: a stream's
        evaluation cost accumulates across refreshes, exactly like the
        paper's scan-rate bookkeeping accumulates across iterations.
        """
        self.dataset = dataset
        if dataset is self.index.dataset:
            # Same (immutable) dataset object: the index is already its
            # index — e.g. the first rebuild() after construction, where
            # the builder's cached snapshot IS the seed dataset.
            return
        if dirty_users is not None:
            self.index.update(dataset, dirty_users)
            return
        index_class = type(self.index)
        try:
            self.index = index_class(
                dataset, maintenance=self.index.maintenance
            )
        except TypeError:
            # Subclasses with a bare (dataset) constructor.
            self.index = index_class(dataset)

    def pair(self, u: int, v: int) -> float:
        """Similarity of one pair (counted as one evaluation).

        The value is rounded through the float32 score boundary
        (:mod:`repro.layout`) so it equals what :meth:`batch` returns
        for the same pair and what graph rows store at rest.
        """
        with self.timer.phase("similarity"):
            value = self.metric.score_pair(self.index, u, v)
        self.counter.add(1)
        return float(np.float32(value))

    def batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Similarities for parallel pair arrays (counted per pair).

        Scored by :func:`score_pairs_chunked` in ``batch_size`` chunks.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError(
                f"us and vs must have equal length, got {us.size} vs {vs.size}"
            )
        with self.timer.phase("similarity"):
            out = score_pairs_chunked(
                self.metric, self.index, us, vs, self.batch_size
            )
        self.counter.add(int(us.size))
        return out

    def close(self) -> None:
        """Release nothing: the engine holds no pooled resources.

        Kept so callers that close the engines they create keep working.
        """

    def block(self, us: np.ndarray, count: bool = True) -> np.ndarray:
        """Dense ``(len(us), n_users)`` similarity block.

        Used by the brute-force baseline; counts ``len(us) * (n_users - 1)``
        evaluations (self-similarities are not counted, matching the
        paper's pair universe).
        """
        us = np.asarray(us, dtype=np.int64)
        with self.timer.phase("similarity"):
            out = self.metric.score_block(self.index, us)
        if count:
            self.counter.add(int(us.size) * (self.n_users - 1))
        return compact_scores(out)

    def scan_rate(self) -> float:
        """Current scan rate of this engine's counter."""
        return self.counter.scan_rate(self.n_users)
