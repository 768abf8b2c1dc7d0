"""Similarity-evaluation counting.

The paper's central cost metric is the *scan rate* (Section IV-C): the
number of similarity evaluations performed, normalised by the number of
possible user pairs ``|U| * (|U| - 1) / 2``.  Every similarity evaluation in
this library flows through a :class:`SimilarityCounter`, so scan rates are
measured, never estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MaintenanceCounter", "SimilarityCounter", "scan_rate"]


@dataclass
class MaintenanceCounter:
    """Counts the per-user work of incremental maintenance.

    The streaming subsystem's claim is that a refresh costs work
    proportional to the *dirty set*, not to the dataset.  Similarity
    evaluations are already counted by :class:`SimilarityCounter`; this
    counter covers the remaining full-dataset floors the incremental
    paths eliminate:

    * ``rows_materialized`` — CSR rows derived when a
      :class:`~repro.datasets.mutable.MutableBipartiteBuilder` snapshots
      (a full snapshot charges ``n_users``, an incremental one only the
      dirty rows).
    * ``index_users_recomputed`` — users whose norms / profile sizes /
      metric caches a :class:`~repro.similarity.base.ProfileIndex`
      (re)computed (a cold build charges ``n_users``, an incremental
      ``update`` only the dirty users).

    The mode tallies (``snapshots_full`` vs ``snapshots_incremental``,
    ``index_builds_full`` vs ``index_updates_incremental``) record which
    path ran, so benchmarks can assert the fast paths actually engaged.

    The ``scheduler_*`` tallies account the bounded-staleness scheduler
    (:mod:`repro.scheduling`): scheduled refresh passes run, dirty
    users deferred past a pass (one user deferred across three passes
    counts three), backpressure signals raised by admission control,
    and events rejected under the ``"reject"`` backpressure mode.
    """

    rows_materialized: int = 0
    index_users_recomputed: int = 0
    snapshots_full: int = 0
    snapshots_incremental: int = 0
    index_builds_full: int = 0
    index_updates_incremental: int = 0
    scheduler_passes: int = 0
    scheduler_deferrals: int = 0
    scheduler_backpressure: int = 0
    scheduler_events_rejected: int = 0

    def reset(self) -> None:
        """Zero every tally."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


@dataclass
class SimilarityCounter:
    """Counts similarity evaluations (and nothing else).

    ``evaluations`` is the raw count; :meth:`scan_rate` normalises it the
    way the paper does.  ``checkpoints`` lets convergence traces snapshot
    the counter between iterations.
    """

    evaluations: int = 0
    checkpoints: list[int] = field(default_factory=list)

    def add(self, count: int = 1) -> None:
        """Record *count* similarity evaluations."""
        if count < 0:
            raise ValueError(f"cannot add a negative count ({count})")
        self.evaluations += count

    def checkpoint(self) -> int:
        """Snapshot the current total (e.g. at the end of an iteration)."""
        self.checkpoints.append(self.evaluations)
        return self.evaluations

    def reset(self) -> None:
        """Zero the counter and forget checkpoints."""
        self.evaluations = 0
        self.checkpoints.clear()

    def scan_rate(self, n_users: int) -> float:
        """Scan rate as a fraction: ``evaluations / (n(n-1)/2)``."""
        return scan_rate(self.evaluations, n_users)


def scan_rate(evaluations: int, n_users: int) -> float:
    """The paper's scan-rate normalisation (Section IV-C).

    ``scanrate = #(similarity evaluations) / (|U| * (|U| - 1) / 2)``
    """
    if n_users < 2:
        return 0.0
    possible_pairs = n_users * (n_users - 1) / 2
    return evaluations / possible_pairs
