"""Synthetic bipartite dataset generators.

The paper evaluates KIFF on four public SNAP datasets (Arxiv, Wikipedia,
Gowalla, DBLP) and a MovieLens density family.  Those archives are not
available in this offline environment, so this module provides *seeded
synthetic generators* that reproduce the statistical shape the paper's
analysis depends on:

* long-tailed (power-law) user- and item-profile size distributions
  (Figure 4 of the paper),
* target user/item counts and density (Table I),
* rating models matching each dataset (binary votes, visit counts,
  co-publication counts, 5-star ratings).

The generators are deliberately simple: edges are sampled from independent
Zipf-like endpoint distributions and de-duplicated.  This is the classic
bipartite configuration-style model and produces CCDFs with the straight
log-log tails the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteDataset, DatasetError

__all__ = [
    "GeneratorConfig",
    "zipf_weights",
    "sample_power_law_edges",
    "power_law_bipartite",
    "ensure_min_user_profile",
    "large_scale_dataset",
    "RATING_MODELS",
    "draw_ratings",
]


def zipf_weights(n: int, exponent: float, rng: np.random.Generator | None = None) -> np.ndarray:
    """Return normalised Zipf(``exponent``) sampling weights over ``n`` ranks.

    ``weights[r] ~ 1 / (r + 1) ** exponent``.  The ranks are shuffled when a
    generator is supplied so that popularity is not correlated with id order
    (ids are pivot keys in KIFF, and correlating them with popularity would
    bias the pivot strategy in a way real datasets do not).
    """
    if n <= 0:
        raise DatasetError(f"need at least one element, got n={n}")
    if exponent < 0:
        raise DatasetError(f"zipf exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    if rng is not None:
        rng.shuffle(weights)
    return weights / weights.sum()


def draw_ratings(
    model: str, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` ratings from a named rating model.

    Models
    ------
    ``binary``
        All ratings are 1.0 (Wikipedia votes, Arxiv co-authorship links).
    ``count``
        Geometric counts >= 1 (Gowalla check-in counts, DBLP
        co-publication counts): most pairs occur once, a long tail repeats.
    ``stars``
        MovieLens-style 5-star scale with half-star increments
        (0.5, 1.0, ..., 5.0), J-shaped towards 3-4 stars.
    """
    if model not in RATING_MODELS:
        raise DatasetError(
            f"unknown rating model {model!r}; expected one of "
            f"{sorted(RATING_MODELS)}"
        )
    return RATING_MODELS[model](size, rng)


def _binary_ratings(size: int, rng: np.random.Generator) -> np.ndarray:
    return np.ones(size, dtype=np.float64)


def _count_ratings(size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.geometric(p=0.55, size=size).astype(np.float64)


def _star_ratings(size: int, rng: np.random.Generator) -> np.ndarray:
    stars = np.arange(0.5, 5.01, 0.5)
    # Empirical MovieLens-like shape: mass concentrated on 3-4 stars.
    weights = np.array([1, 2, 3, 5, 8, 14, 18, 23, 14, 12], dtype=np.float64)
    weights /= weights.sum()
    return rng.choice(stars, size=size, p=weights)


RATING_MODELS = {
    "binary": _binary_ratings,
    "count": _count_ratings,
    "stars": _star_ratings,
}


def sample_power_law_edges(
    n_users: int,
    n_items: int,
    n_ratings: int,
    user_exponent: float,
    item_exponent: float,
    rng: np.random.Generator,
    max_rounds: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n_ratings`` *distinct* (user, item) edges.

    Endpoints are drawn independently from Zipf-like distributions and
    duplicate edges are rejected.  Sampling proceeds in rounds with
    over-provisioning, so the expected number of rounds is small even for
    dense targets.  Raises :class:`DatasetError` if the target cannot be
    reached (e.g. ``n_ratings > n_users * n_items``).
    """
    capacity = n_users * n_items
    if n_ratings > capacity:
        raise DatasetError(
            f"cannot place {n_ratings} distinct edges in a "
            f"{n_users}x{n_items} bipartite graph"
        )
    if n_ratings <= 0:
        raise DatasetError(f"n_ratings must be positive, got {n_ratings}")
    user_w = zipf_weights(n_users, user_exponent, rng)
    item_w = zipf_weights(n_items, item_exponent, rng)
    keys = np.empty(0, dtype=np.int64)
    for _ in range(max_rounds):
        missing = n_ratings - keys.size
        if missing <= 0:
            break
        draw = int(missing * 1.6) + 32
        users = rng.choice(n_users, size=draw, p=user_w)
        items = rng.choice(n_items, size=draw, p=item_w)
        new_keys = users.astype(np.int64) * n_items + items
        keys = np.unique(np.concatenate([keys, new_keys]))
    if keys.size < n_ratings:
        # Very dense target relative to the skew: fall back to filling with
        # uniform samples over the not-yet-used cells.
        missing = n_ratings - keys.size
        pool = np.setdiff1d(
            rng.choice(capacity, size=min(capacity, 4 * missing + 64), replace=False),
            keys,
            assume_unique=False,
        )
        if pool.size < missing:
            pool = np.setdiff1d(np.arange(capacity, dtype=np.int64), keys)
        keys = np.concatenate([keys, rng.permutation(pool)[:missing]])
    keys = rng.permutation(keys)[:n_ratings]
    return keys // n_items, keys % n_items


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one synthetic bipartite dataset.

    ``user_exponent`` / ``item_exponent`` control the skew of the profile
    size distributions (larger = heavier tail concentration on few nodes;
    the paper's datasets are well described by exponents in [0.6, 1.1]).
    ``min_profile_size`` tops up users below that many ratings — real
    datasets have such floors (the paper's DBLP snapshot keeps only authors
    with >= 5 co-publications; MovieLens requires >= 20 ratings).
    """

    name: str
    n_users: int
    n_items: int
    n_ratings: int
    user_exponent: float = 0.8
    item_exponent: float = 0.8
    rating_model: str = "binary"
    symmetric: bool = False
    seed: int = 42
    min_profile_size: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_items <= 0:
            raise DatasetError(
                f"{self.name}: n_users and n_items must be positive"
            )
        if self.symmetric and self.n_users != self.n_items:
            raise DatasetError(
                f"{self.name}: symmetric datasets need n_users == n_items"
            )
        if self.rating_model not in RATING_MODELS:
            raise DatasetError(
                f"{self.name}: unknown rating model {self.rating_model!r}"
            )

    @property
    def density(self) -> float:
        return self.n_ratings / (self.n_users * self.n_items)


def power_law_bipartite(config: GeneratorConfig) -> BipartiteDataset:
    """Generate a :class:`BipartiteDataset` from a :class:`GeneratorConfig`.

    Symmetric configurations (co-authorship graphs) generate an undirected
    edge set over one population and mirror it, so the resulting matrix is
    symmetric and ``n_ratings`` counts *directed* edges as the paper does
    (each co-authorship contributes one rating in each direction).
    """
    rng = np.random.default_rng(config.seed)
    if config.symmetric:
        dataset = _symmetric_dataset(config, rng)
    else:
        users, items = sample_power_law_edges(
            config.n_users,
            config.n_items,
            config.n_ratings,
            config.user_exponent,
            config.item_exponent,
            rng,
        )
        ratings = draw_ratings(config.rating_model, users.size, rng)
        dataset = BipartiteDataset.from_edges(
            users,
            items,
            ratings,
            n_users=config.n_users,
            n_items=config.n_items,
            name=config.name,
            symmetric=False,
        )
    if config.min_profile_size > 0:
        dataset = ensure_min_user_profile(
            dataset, config.min_profile_size, rng, config.rating_model
        )
    return dataset


def large_scale_dataset(
    n_users: int,
    *,
    ratings_per_user: float = 5.0,
    n_items: int | None = None,
    item_exponent: float = 0.9,
    rating_model: str = "binary",
    seed: int = 0,
    name: str | None = None,
) -> BipartiteDataset:
    """A synthetic dataset with up to millions of users, built in one
    vectorized pass.

    :func:`power_law_bipartite` targets the paper's table shapes via
    rejection sampling over the full key space, which does not scale to
    the soak harness's 10^6 users.  Here profile sizes are geometric
    with mean *ratings_per_user* (floor 1 — every user rates something),
    item endpoints are Zipf-weighted so the popularity tail matches the
    paper's CCDFs, and duplicate edges collapse through a single
    ``np.unique`` over int64 stride keys.  Everything is seeded, so
    bytes-per-user counters derived from the result are deterministic.

    Only the user count is large.  The Zipf tail packs the ratings onto
    a few items: at the soak harness's parameters (10^6 users, 20k
    items, 5 ratings per user, ``stars``, seed 7) the hottest item has
    232,601 raters and the item rater counts square-sum to 1.17e11, so
    an exact KNN graph of this data must score O(10^10) co-rating
    pairs — far more than a sparse million-user dataset of the paper's
    kind.
    """
    if n_users <= 0:
        raise DatasetError(f"n_users must be positive, got {n_users}")
    if ratings_per_user < 1.0:
        raise DatasetError(
            f"ratings_per_user must be >= 1, got {ratings_per_user}"
        )
    if n_items is None:
        n_items = max(64, n_users // 100)
    rng = np.random.default_rng(seed)
    sizes = np.minimum(
        rng.geometric(p=1.0 / ratings_per_user, size=n_users), n_items
    )
    users = np.repeat(np.arange(n_users, dtype=np.int64), sizes)
    item_w = zipf_weights(n_items, item_exponent, rng)
    items = rng.choice(n_items, size=users.size, p=item_w).astype(np.int64)
    keys = np.unique(users * n_items + items)
    users, items = keys // n_items, keys % n_items
    ratings = draw_ratings(rating_model, users.size, rng)
    return BipartiteDataset.from_edges(
        users,
        items,
        ratings,
        n_users=n_users,
        n_items=n_items,
        name=name or f"synthetic-scale-{n_users}",
        symmetric=False,
    )


def ensure_min_user_profile(
    dataset: BipartiteDataset,
    min_size: int,
    rng: np.random.Generator,
    rating_model: str = "binary",
) -> BipartiteDataset:
    """Top up users with fewer than *min_size* ratings.

    Non-symmetric datasets receive uniformly random extra items; symmetric
    (co-authorship) datasets receive random extra partners, with the edge
    mirrored so the matrix stays symmetric.
    """
    sizes = dataset.user_profile_sizes()
    deficient = np.flatnonzero(sizes < min_size)
    if deficient.size == 0:
        return dataset
    coo = dataset.matrix.tocoo()
    users = [coo.row.astype(np.int64)]
    items = [coo.col.astype(np.int64)]
    values = [coo.data]
    for user in deficient:
        user = int(user)
        have = dataset.user_items(user)
        missing = min_size - have.size
        forbidden = set(have.tolist())
        if dataset.symmetric:
            forbidden.add(user)
        pool = np.array(
            [i for i in rng.choice(dataset.n_items, size=min(dataset.n_items, 8 * min_size + 16), replace=False) if i not in forbidden],
            dtype=np.int64,
        )
        extra = pool[:missing]
        if extra.size == 0:
            continue
        new_ratings = draw_ratings(rating_model, extra.size, rng)
        users.append(np.full(extra.size, user, dtype=np.int64))
        items.append(extra)
        values.append(new_ratings)
        if dataset.symmetric:
            users.append(extra)
            items.append(np.full(extra.size, user, dtype=np.int64))
            values.append(new_ratings)
    return BipartiteDataset.from_edges(
        np.concatenate(users),
        np.concatenate(items),
        np.concatenate(values),
        n_users=dataset.n_users,
        n_items=dataset.n_items,
        name=dataset.name,
        symmetric=dataset.symmetric,
    )


def _symmetric_dataset(
    config: GeneratorConfig, rng: np.random.Generator
) -> BipartiteDataset:
    """Generate a symmetric co-authorship-style dataset.

    We sample undirected pairs (u < v) with Zipf endpoint weights, then
    mirror them.  ``n_ratings`` is the directed edge target, so we aim for
    ``n_ratings / 2`` undirected pairs.
    """
    n = config.n_users
    target_pairs = max(config.n_ratings // 2, 1)
    weights = zipf_weights(n, config.user_exponent, rng)
    keys = np.empty(0, dtype=np.int64)
    for _ in range(16):
        missing = target_pairs - keys.size
        if missing <= 0:
            break
        draw = int(missing * 1.7) + 32
        a = rng.choice(n, size=draw, p=weights)
        b = rng.choice(n, size=draw, p=weights)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        mask = lo != hi
        new_keys = lo[mask].astype(np.int64) * n + hi[mask]
        keys = np.unique(np.concatenate([keys, new_keys]))
    keys = rng.permutation(keys)[:target_pairs]
    lo, hi = keys // n, keys % n
    ratings = draw_ratings(config.rating_model, lo.size, rng)
    users = np.concatenate([lo, hi])
    items = np.concatenate([hi, lo])
    values = np.concatenate([ratings, ratings])
    return BipartiteDataset.from_edges(
        users,
        items,
        values,
        n_users=n,
        n_items=n,
        name=config.name,
        symmetric=True,
    )
