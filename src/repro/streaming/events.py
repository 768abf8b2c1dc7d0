"""Typed event vocabulary for streaming KNN maintenance.

Every mutation of a :class:`~repro.streaming.index.DynamicKnnIndex` is one
of five event kinds, mirroring what a production rating front-end
produces:

* :class:`AddRating` — one ``(user, item, rating)`` edge lands (or an
  existing rating is overwritten; ``rating = 0`` deletes the edge).
* :class:`RemoveRating` — one edge is deleted (first-class form of
  ``AddRating(rating=0)``, so deletion intent survives in logs).
* :class:`AddUser` — a new user joins with an optional initial profile.
* :class:`RemoveUser` — a user leaves; her profile is cleared but the id
  stays allocated so graph rows remain aligned.
* :class:`Batch` — a group of events validated together, applied as one
  unit and refreshed once (the bulk form the array helpers construct).

Typed events are the **only** ingestion path:
``DynamicKnnIndex.apply(events)`` is the single entry point every
mutation flows through, and it returns an :class:`ApplyResult`.  That
single choke point is what lets the :mod:`repro.persistence` subsystem
journal every applied event into a
:class:`~repro.persistence.PartitionedWriteAheadLog` and recover a
bit-identical graph from a checkpoint plus the log tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hints only)
    from .index import RefreshStats

__all__ = [
    "AddRating",
    "AddUser",
    "ApplyResult",
    "Batch",
    "Event",
    "MigrateBegin",
    "MigrateCommit",
    "RemoveRating",
    "RemoveUser",
    "flatten_events",
    "ratings_batch",
]


@dataclass(frozen=True)
class AddRating:
    """Set one rating; ``rating = 0.0`` removes the edge."""

    user: int
    item: int
    rating: float = 1.0


@dataclass(frozen=True)
class RemoveRating:
    """Delete one rating edge (a no-op when the edge is absent)."""

    user: int
    item: int


@dataclass(frozen=True)
class AddUser:
    """Allocate the next user id with an optional initial profile."""

    items: tuple = ()
    ratings: tuple | None = None


@dataclass(frozen=True)
class RemoveUser:
    """Clear one user's profile (the id stays in the universe)."""

    user: int


@dataclass(frozen=True)
class Batch:
    """A group of events applied as one unit.

    The whole batch is validated before anything mutates (a bad event
    cannot leave earlier ones applied but unrefreshed) and, under
    ``auto_refresh``, triggers a single refinement pass instead of one
    per event.  Batches may nest; they are flattened on application and
    journaled as their primitive events.
    """

    events: tuple = ()


@dataclass(frozen=True)
class MigrateBegin:
    """Fence opening one live shard re-balancing window.

    Journaled (never fed through ``apply``) by
    :meth:`~repro.streaming.index.DynamicKnnIndex.rebalance` before
    ownership changes.  A log tail holding a ``MigrateBegin`` without
    its :class:`MigrateCommit` means the migration never took effect:
    replay rolls back to this fence by simply not flipping ownership.

    ``moves`` is a tuple of ``(user, target_shard)`` pairs;
    ``n_shards`` is the post-migration shard count (``None`` when the
    count is unchanged).
    """

    moves: tuple = ()
    n_shards: int | None = None


@dataclass(frozen=True)
class MigrateCommit:
    """Fence closing a re-balancing window; ownership flips here.

    Carries the same payload as its :class:`MigrateBegin` so replay can
    apply the flip from the commit record alone, at its exact sequence
    number relative to the surrounding rating events.
    """

    moves: tuple = ()
    n_shards: int | None = None


#: Any streaming event.
Event = Union[AddRating, RemoveRating, AddUser, RemoveUser, Batch]

#: The event kinds that directly mutate state (everything but Batch).
PRIMITIVE_EVENTS = (AddRating, RemoveRating, AddUser, RemoveUser)

#: Every event kind accepted by ``DynamicKnnIndex.apply``.
EVENT_TYPES = PRIMITIVE_EVENTS + (Batch,)

#: WAL-only control records (sharding ownership fences).  Not accepted
#: by ``apply`` — they are journaled directly by ``rebalance()`` and
#: absorbed during replay via ``_absorb_control``.
CONTROL_EVENTS = (MigrateBegin, MigrateCommit)


def flatten_events(event: Event) -> list:
    """*event* as a flat list of primitive events (batches unnested)."""
    if isinstance(event, Batch):
        flat: list = []
        for sub in event.events:
            flat.extend(flatten_events(sub))
        return flat
    if isinstance(event, PRIMITIVE_EVENTS):
        return [event]
    raise TypeError(f"unknown streaming event {event!r}")


def ratings_batch(users, items, ratings=None) -> Batch:
    """A :class:`Batch` of :class:`AddRating` events from parallel arrays.

    The bulk form the replay helpers construct; ``ratings`` defaults
    to all-ones.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if ratings is None:
        ratings = np.ones(users.size, dtype=np.float64)
    else:
        ratings = np.asarray(ratings, dtype=np.float64)
    if users.shape != items.shape or users.shape != ratings.shape:
        raise ValueError(
            f"users, items and ratings must have equal length, got "
            f"{users.size}, {items.size}, {ratings.size}"
        )
    return Batch(
        tuple(
            AddRating(user, item, rating)
            for user, item, rating in zip(
                users.tolist(), items.tolist(), ratings.tolist()
            )
        )
    )


@dataclass(frozen=True)
class ApplyResult:
    """Structured outcome of one ``DynamicKnnIndex.apply`` call."""

    #: User ids minted by AddUser events, in application order.
    new_users: tuple[int, ...]
    #: RefreshStats of every refinement pass this apply triggered.
    refreshes: tuple["RefreshStats", ...]
    #: Primitive events applied (batches counted flattened).
    events: int
    #: The index's event sequence number after the last applied event.
    last_seq: int
