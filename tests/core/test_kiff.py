"""Unit and integration tests for the KIFF algorithm."""

import math

import numpy as np
import pytest

from repro import (
    KiffConfig,
    SimilarityEngine,
    brute_force_knn,
    kiff,
    per_user_recall,
)
from repro.core.rcs import build_rcs
from tests.conftest import random_dataset


class TestToyBehaviour:
    def test_only_sharing_users_become_neighbors(self, toy_engine):
        """Carl and Dave never enter Alice's neighbourhood (Sec. II-D)."""
        result = kiff(toy_engine, KiffConfig(k=3))
        alice_neighbors = set(result.graph.neighbors_of(0).tolist())
        assert alice_neighbors == {1}  # only Bob shares an item

    def test_symmetric_discovery_through_pivot(self, toy_engine):
        """Bob's RCS is empty but Alice's pop updates Bob too."""
        result = kiff(toy_engine, KiffConfig(k=3))
        assert set(result.graph.neighbors_of(1).tolist()) == {0}

    def test_toy_similarities_correct(self, toy_engine):
        result = kiff(toy_engine, KiffConfig(k=3))
        assert result.graph.sims_of(0)[0] == pytest.approx(0.5)  # cos(A,B)
        assert result.graph.sims_of(2)[0] == pytest.approx(1.0)  # cos(C,D)


class TestModes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_equals_reference(self, seed):
        ds = random_dataset(n_users=50, n_items=35, density=0.15, seed=seed)
        fast = kiff(SimilarityEngine(ds), KiffConfig(k=5, mode="fast"))
        reference = kiff(SimilarityEngine(ds), KiffConfig(k=5, mode="reference"))
        assert fast.graph == reference.graph

    def test_fast_equals_reference_with_ratings(self):
        ds = random_dataset(
            n_users=40, n_items=30, density=0.2, seed=3, ratings=True
        )
        fast = kiff(SimilarityEngine(ds), KiffConfig(k=4, mode="fast"))
        reference = kiff(SimilarityEngine(ds), KiffConfig(k=4, mode="reference"))
        assert fast.graph == reference.graph

    def test_fast_equals_reference_on_preset(self, tiny_wikipedia):
        fast = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=10))
        reference = kiff(
            SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, mode="reference")
        )
        assert fast.graph == reference.graph

    def test_scan_rates_identical_across_modes(self, tiny_wikipedia):
        fast = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=10))
        reference = kiff(
            SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, mode="reference")
        )
        assert fast.scan_rate == pytest.approx(reference.scan_rate)


class TestModeParitySweep:
    """Reference-vs-fast parity across the (gamma, beta, min_rating) grid.

    The streaming subsystem asserts its graphs against cold rebuilds; this
    sweep is what lets it assert against *either* execution mode with
    confidence — on the seeded test datasets the two modes agree on the
    graph and the evaluation count across the whole parameter grid, not
    just at the defaults.
    """

    GAMMAS = (1, 7, None, math.inf)
    BETAS = (0.0, 0.001, 0.05, math.inf)
    MIN_RATINGS = (None, 3.0)

    @pytest.mark.parametrize("metric", ["cosine", "pearson"])
    @pytest.mark.parametrize("min_rating", MIN_RATINGS)
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_reference_equals_fast_on_grid(self, gamma, beta, min_rating, metric):
        """Pearson's scalar ``score_pair`` (the reference mode's scorer)
        must give the bits of its batch kernel, signed zeros included."""
        ds = random_dataset(
            n_users=40, n_items=30, density=0.15, seed=11, ratings=True
        )
        config = dict(k=5, gamma=gamma, beta=beta, min_rating=min_rating)
        fast = kiff(
            SimilarityEngine(ds, metric=metric),
            KiffConfig(mode="fast", **config),
        )
        reference = kiff(
            SimilarityEngine(ds, metric=metric),
            KiffConfig(mode="reference", **config),
        )
        assert fast.graph == reference.graph
        assert fast.graph.sims.tobytes() == reference.graph.sims.tobytes()
        assert fast.evaluations == reference.evaluations

    @pytest.mark.parametrize("min_rating", MIN_RATINGS)
    @pytest.mark.parametrize("gamma", (1, 7, math.inf))
    def test_converged_graph_is_gamma_invariant(self, gamma, min_rating):
        """With beta = 0 the final graph is the gamma-independent fixed
        point — the invariant the streaming subsystem maintains."""
        ds = random_dataset(
            n_users=40, n_items=30, density=0.15, seed=12, ratings=True
        )
        swept = kiff(
            SimilarityEngine(ds),
            KiffConfig(k=5, gamma=gamma, beta=0.0, min_rating=min_rating),
        )
        anchor = kiff(
            SimilarityEngine(ds),
            KiffConfig(k=5, gamma=math.inf, beta=0.0, min_rating=min_rating),
        )
        assert swept.graph == anchor.graph


class TestOptimality:
    """Section III-D: gamma=inf + metric with properties (5)/(6) => exact."""

    @pytest.mark.parametrize("metric", ["cosine", "jaccard", "adamic_adar"])
    def test_gamma_infinity_is_exact(self, tiny_wikipedia, metric):
        engine = SimilarityEngine(tiny_wikipedia, metric=metric)
        result = kiff(engine, KiffConfig(k=10, gamma=math.inf, beta=0.0))
        exact = brute_force_knn(
            SimilarityEngine(tiny_wikipedia, metric=metric), 10
        )
        recalls = per_user_recall(result.graph, exact.graph)
        # Users whose k-th exact similarity is positive must be perfect;
        # users padded with zero-similarity strangers cannot be found by
        # KIFF by design (they share no items).
        positive = exact.graph.kth_sims() > 1e-12
        assert np.all(recalls[positive] == 1.0)

    def test_scan_bounded_by_rcs_total(self, tiny_wikipedia):
        engine = SimilarityEngine(tiny_wikipedia)
        result = kiff(engine, KiffConfig(k=10, gamma=math.inf, beta=0.0))
        rcs = build_rcs(tiny_wikipedia)
        assert result.evaluations <= rcs.total_candidates

    def test_each_pair_evaluated_at_most_once(self, tiny_wikipedia):
        """KIFF's guarantee: evaluations never exceed sum |RCS_u|."""
        engine = SimilarityEngine(tiny_wikipedia)
        result = kiff(engine, KiffConfig(k=10))
        rcs = build_rcs(tiny_wikipedia)
        assert result.evaluations <= rcs.total_candidates


class TestTermination:
    def test_beta_infinite_stops_after_one_iteration(self, wiki_engine):
        result = kiff(wiki_engine, KiffConfig(k=10, beta=math.inf))
        assert result.iterations == 1

    def test_larger_beta_terminates_no_later(self, tiny_wikipedia):
        loose = kiff(
            SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, beta=0.5)
        )
        tight = kiff(
            SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, beta=0.001)
        )
        assert loose.iterations <= tight.iterations
        assert loose.evaluations <= tight.evaluations

    def test_max_iterations_cap(self, wiki_engine):
        result = kiff(wiki_engine, KiffConfig(k=10, beta=0.0, gamma=1, max_iterations=3))
        assert result.iterations == 3

    def test_terminates_with_beta_zero(self, wiki_engine):
        """RCS exhaustion guarantees termination even when beta = 0."""
        result = kiff(wiki_engine, KiffConfig(k=10, beta=0.0))
        rcs_total = build_rcs(wiki_engine.dataset).total_candidates
        assert result.evaluations == rcs_total

    def test_small_gamma_more_iterations(self, tiny_wikipedia):
        small = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, gamma=5))
        large = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, gamma=80))
        assert small.iterations > large.iterations


class TestInstrumentation:
    def test_trace_records_every_iteration(self, wiki_engine):
        result = kiff(wiki_engine, KiffConfig(k=10))
        assert len(result.trace) == result.iterations

    def test_trace_evaluations_monotone(self, wiki_engine):
        result = kiff(wiki_engine, KiffConfig(k=10))
        evals = [r.evaluations for r in result.trace.records]
        assert all(a < b for a, b in zip(evals, evals[1:]))

    def test_snapshots_kept_when_requested(self, tiny_wikipedia):
        result = kiff(
            SimilarityEngine(tiny_wikipedia),
            KiffConfig(k=5, track_snapshots=True),
        )
        snapshots = result.trace.snapshots()
        assert len(snapshots) == result.iterations
        assert snapshots[-1] == result.graph

    def test_phase_times_populated(self, wiki_engine):
        result = kiff(wiki_engine, KiffConfig(k=10))
        breakdown = result.timer.as_breakdown()
        assert breakdown["preprocessing"] > 0
        assert breakdown["candidate_selection"] > 0
        assert breakdown["similarity"] > 0

    def test_extras_contain_rcs_stats(self, wiki_engine):
        result = kiff(wiki_engine, KiffConfig(k=10))
        assert result.extras["rcs_avg_size"] > 0
        assert result.extras["gamma"] == 20
        assert result.extras["k"] == 10

    def test_prebuilt_rcs_reused(self, tiny_wikipedia):
        engine = SimilarityEngine(tiny_wikipedia)
        rcs = build_rcs(tiny_wikipedia)
        result = kiff(engine, KiffConfig(k=10), rcs=rcs)
        fresh = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=10))
        assert result.graph == fresh.graph


class TestQuality:
    def test_high_recall_on_preset(self, tiny_wikipedia):
        result = kiff(SimilarityEngine(tiny_wikipedia), KiffConfig(k=10))
        exact = brute_force_knn(SimilarityEngine(tiny_wikipedia), 10)
        positive = exact.graph.kth_sims() > 1e-12
        recalls = per_user_recall(result.graph, exact.graph)
        assert recalls[positive].mean() > 0.95

    def test_min_rating_reduces_evaluations(self):
        ds = random_dataset(
            n_users=60, n_items=45, density=0.2, seed=6, ratings=True
        )
        base = kiff(SimilarityEngine(ds), KiffConfig(k=5))
        pruned = kiff(SimilarityEngine(ds), KiffConfig(k=5, min_rating=4.0))
        assert pruned.evaluations < base.evaluations

    def test_no_pivot_doubles_evaluations(self, tiny_wikipedia):
        pivoted = kiff(
            SimilarityEngine(tiny_wikipedia), KiffConfig(k=10, beta=0.0)
        )
        symmetric = kiff(
            SimilarityEngine(tiny_wikipedia),
            KiffConfig(k=10, beta=0.0, pivot=False),
        )
        assert symmetric.evaluations == 2 * pivoted.evaluations
        # Same graph either way.
        assert symmetric.graph == pivoted.graph


class TestDegenerateInputs:
    def test_no_shared_items_yields_empty_graph(self):
        """Users with disjoint profiles have empty RCSs: KIFF terminates
        immediately with an empty graph (there is nothing to find)."""
        from repro.datasets import BipartiteDataset

        ds = BipartiteDataset.from_profiles(
            [{0: 1.0}, {1: 1.0}, {2: 1.0}], n_items=3
        )
        result = kiff(SimilarityEngine(ds), KiffConfig(k=2))
        assert result.graph.edge_count() == 0
        assert result.evaluations == 0
        assert result.iterations == 0

    def test_single_shared_item_pair(self):
        from repro.datasets import BipartiteDataset

        ds = BipartiteDataset.from_profiles(
            [{0: 1.0}, {0: 1.0}, {1: 1.0}], n_items=2
        )
        result = kiff(SimilarityEngine(ds), KiffConfig(k=2))
        assert set(result.graph.neighbors_of(0).tolist()) == {1}
        assert set(result.graph.neighbors_of(1).tolist()) == {0}
        assert result.graph.neighbors_of(2).size == 0

    def test_k_larger_than_population_of_candidates(self, toy_engine):
        """k above any candidate count: rows simply stay partial."""
        result = kiff(toy_engine, KiffConfig(k=3))
        assert result.graph.degree().max() <= 1  # at most one sharer each

    def test_gamma_one_still_converges(self, tiny_wikipedia):
        slow = kiff(
            SimilarityEngine(tiny_wikipedia),
            KiffConfig(k=5, gamma=1, beta=0.0),
        )
        fast = kiff(
            SimilarityEngine(tiny_wikipedia),
            KiffConfig(k=5, gamma=1000, beta=0.0),
        )
        assert slow.graph == fast.graph


class TestZeroUserDataset:
    """kiff() on a 0-user dataset must return an empty graph, not crash.

    BipartiteDataset itself forbids zero users, but engines can be bound
    to custom dataset objects (sharded streams drain, filters reject all
    rows); _heaps_to_graph used to IndexError on ``heaps[0]``.
    """

    class _EmptyDataset:
        import scipy.sparse as _sp

        matrix = _sp.csr_matrix((0, 3))
        n_users = 0
        n_items = 3

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_returns_empty_graph(self, mode):
        engine = SimilarityEngine(self._EmptyDataset())
        result = kiff(engine, KiffConfig(k=4, mode=mode))
        assert result.graph.n_users == 0
        assert result.graph.k == 4
        assert result.graph.edge_count() == 0
        assert result.evaluations == 0

    def test_zero_user_rcs_stats_are_finite(self):
        rcs = build_rcs(self._EmptyDataset())
        assert rcs.n_users == 0
        assert rcs.avg_size == 0.0
        assert rcs.max_scan_rate() == 0.0
