"""Shared fixtures: small deterministic datasets, engines, strategies."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings as hypothesis_settings
from hypothesis import strategies as st

from repro import BipartiteDataset, SimilarityEngine
from repro.datasets import load_dataset
from repro.streaming import RemoveRating

# ----------------------------------------------------------------------
# Hypothesis profiles: seeded and deadline-free in CI, lenient locally.
# ----------------------------------------------------------------------
hypothesis_settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.register_profile("dev", deadline=None)
# The scheduled soak job (``--hypothesis-profile soak``): a long,
# randomized budget for the stateful fuzzer in tests/streaming/.  On a
# failure it shrinks one bug only and skips the explain phase, whose
# extra replays of the minimal example multiply the time and memory a
# failing state machine costs.
hypothesis_settings.register_profile(
    "soak",
    deadline=None,
    max_examples=400,
    stateful_step_count=40,
    suppress_health_check=[HealthCheck.too_slow],
    report_multiple_bugs=False,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
hypothesis_settings.load_profile("ci" if os.environ.get("CI") else "dev")


@pytest.fixture
def toy_dataset() -> BipartiteDataset:
    """The paper's Figure 2 toy example, extended slightly.

    Users: 0=Alice, 1=Bob, 2=Carl, 3=Dave.
    Items: 0=book, 1=coffee, 2=cheese, 3=shopping.
    Alice likes book+coffee, Bob coffee+cheese, Carl and Dave shopping.
    """
    return BipartiteDataset.from_profiles(
        [
            {0: 1.0, 1: 1.0},
            {1: 1.0, 2: 1.0},
            {3: 1.0},
            {3: 1.0},
        ],
        n_items=4,
        name="figure2-toy",
    )


@pytest.fixture
def rated_dataset() -> BipartiteDataset:
    """A small dataset with non-trivial rating values."""
    return BipartiteDataset.from_profiles(
        [
            {0: 5.0, 1: 3.0, 2: 1.0},
            {0: 4.0, 2: 2.0},
            {1: 1.0, 3: 5.0},
            {0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0},
            {4: 3.5},
        ],
        n_items=5,
        name="rated-toy",
    )


@pytest.fixture(scope="session")
def tiny_wikipedia() -> BipartiteDataset:
    """The tiny-scale Wikipedia preset (seeded, shared across tests)."""
    return load_dataset("wikipedia", scale="tiny")


@pytest.fixture(scope="session")
def tiny_arxiv() -> BipartiteDataset:
    """The tiny-scale Arxiv preset (symmetric co-authorship)."""
    return load_dataset("arxiv", scale="tiny")


@pytest.fixture
def toy_engine(toy_dataset) -> SimilarityEngine:
    return SimilarityEngine(toy_dataset, metric="cosine")


@pytest.fixture
def wiki_engine(tiny_wikipedia) -> SimilarityEngine:
    return SimilarityEngine(tiny_wikipedia, metric="cosine")


# ----------------------------------------------------------------------
# Streaming event streams (shared by parity and property suites)
# ----------------------------------------------------------------------
def streaming_events(
    max_items: int = 12, max_events: int = 24, max_rating: int = 5
):
    """Shrinkable Hypothesis strategy of streaming event tuples.

    Events are encoded abstractly so the stream stays valid however the
    population evolves: user references are *slots* that
    :func:`apply_streaming_events` resolves modulo the live user count.

    * ``("rate", slot, item, rating)`` — set a rating (0 deletes);
    * ``("add_user", [(item, rating), ...])`` — a user joins;
    * ``("remove", slot)`` — a user's profile is cleared.
    """
    rate = st.tuples(
        st.just("rate"),
        st.integers(0, 63),
        st.integers(0, max_items - 1),
        st.integers(0, max_rating),
    )
    add_user = st.tuples(
        st.just("add_user"),
        st.lists(
            st.tuples(st.integers(0, max_items - 1), st.integers(1, max_rating)),
            max_size=4,
        ),
    )
    remove = st.tuples(st.just("remove"), st.integers(0, 63))
    return st.lists(st.one_of(rate, add_user, remove), max_size=max_events)


def apply_streaming_events(index, events) -> None:
    """Replay :func:`streaming_events` tuples against a DynamicKnnIndex.

    Tuples are resolved into :mod:`repro.streaming.events` objects one at
    a time (user slots are taken modulo the live user count) and applied
    through ``index.apply`` — the library's single ingestion path — so
    the tests exercise the same event semantics the library defines.
    """
    from repro.streaming import AddRating, AddUser, RemoveUser

    for event in events:
        kind = event[0]
        if kind == "rate":
            _, slot, item, rating = event
            resolved = AddRating(slot % index.n_users, item, float(rating))
        elif kind == "add_user":
            profile = {item: float(rating) for item, rating in event[1]}
            resolved = AddUser(tuple(profile), tuple(profile.values()))
        elif kind == "remove":
            resolved = RemoveUser(event[1] % index.n_users)
        else:  # pragma: no cover - strategy never produces this
            raise ValueError(f"unknown event {event!r}")
        index.apply(resolved)


def random_dataset(
    n_users: int = 60,
    n_items: int = 40,
    density: float = 0.1,
    seed: int = 0,
    ratings: bool = False,
) -> BipartiteDataset:
    """Helper for tests that want arbitrary small random datasets."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    # Guarantee at least one rating so the dataset is valid.
    if not mask.any():
        mask[0, 0] = True
    values = (
        rng.integers(1, 6, size=mask.sum()).astype(float)
        if ratings
        else np.ones(int(mask.sum()))
    )
    users, items = np.nonzero(mask)
    return BipartiteDataset.from_edges(
        users,
        items,
        values,
        n_users=n_users,
        n_items=n_items,
        name=f"random-{seed}",
    )


def exhaust_reserve_events(index, row: int) -> list:
    """Events lowering enough of *row*'s exact entries to force a rescan.

    The row's exact prefix is its first ``depth`` entries; its first
    ``depth - k + 1`` neighbours (``RESERVE + 1`` at the full width)
    each drop every item they share with the row, so they leave its
    candidate set and the repaired row keeps at most ``k - 1`` of its
    old exact entries: it must fall back to a rescan.  The row itself
    stays clean under a profile-local metric.  Returns ``[]`` when the
    row's boundary (the entry at ``depth - 1``) is ``MISSING``: such a
    row holds every candidate and always repairs.
    """
    neighbors, _ = index._rows()
    prefix = neighbors[row, : int(index._depth[row])].tolist()
    if prefix[-1] < 0:
        return []
    builder = index.builder
    mine = set(builder.profile(row))
    return [
        RemoveRating(user, item)
        for user in prefix[: len(prefix) - index.config.k + 1]
        for item in sorted(mine & set(builder.profile(user)))
    ]
