"""KIFF configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..similarity.kernels.numpy_backend import check_kernel_backend

__all__ = ["KiffConfig"]


@dataclass(frozen=True)
class KiffConfig:
    """Parameters of Algorithm 1.

    Defaults follow Section IV-D of the paper: ``k = 20``, ``gamma = 2k``,
    ``beta = 0.001``, cosine similarity (the metric lives on the engine,
    not here).

    Parameters
    ----------
    k:
        Neighbourhood size.
    gamma:
        Candidates popped from each RCS per iteration.  ``None`` means the
        paper's default ``2 * k``; ``math.inf`` exhausts every RCS in the
        first iteration, which (for metrics satisfying properties (5)/(6))
        yields the *exact* KNN graph (Section III-D).
    beta:
        Termination threshold: stop when the average number of
        neighbourhood changes per user in an iteration falls below
        ``beta``.  ``beta = math.inf`` stops after the first iteration
        (the "no convergence" configuration of Table VII).
    max_iterations:
        Safety bound; the RCS-exhaustion guarantee means KIFF always
        terminates, this just caps pathological configurations.
    min_rating:
        Optional rating threshold for RCS construction — the paper's
        future-work pruning heuristic (Section VII).
    pivot:
        Use the lower-id-stores-the-pair strategy (Section II-D).  The
        ablation benches disable it to measure its effect.
    mode:
        ``"fast"`` (vectorised, default) or ``"reference"`` (per-user
        heaps, a line-by-line transcription of Algorithm 1).
    track_snapshots:
        Keep a copy of the graph after each iteration (needed by the
        Figure 8 convergence study; costs memory).
    kernel_backend:
        Only ``None`` or ``"numpy"`` is accepted: both name the one
        bit-identical similarity kernel
        (:mod:`repro.similarity.kernels`).  Anything else raises
        :class:`ValueError`, which is also what restoring a checkpoint
        that names another kernel does.
    max_event_lag:
        Bounded-staleness scheduling knob (``None`` = unscheduled):
        maximum events absorbed since a user went dirty before a
        refresh is forced.  Consumed by
        :class:`repro.scheduling.SchedulerPolicy.from_config`.
    staleness_budget:
        Scheduling knob: maximum wall-clock seconds a dirty user may
        stay deferred before a refresh is forced.
    max_dirty_per_refresh:
        Scheduling knob: cap on dirty users processed per scheduled
        refresh; the low-blast-radius tail beyond it is deferred.
    queue_bound:
        Scheduling knob: admission-control bound on the dirty-user
        queue; submissions beyond it trigger backpressure.
    """

    k: int = 20
    gamma: float | None = None
    beta: float = 0.001
    max_iterations: int = 10_000
    min_rating: float | None = None
    pivot: bool = True
    mode: str = "fast"
    track_snapshots: bool = False
    kernel_backend: str | None = None
    max_event_lag: int | None = None
    staleness_budget: float | None = None
    max_dirty_per_refresh: int | None = None
    queue_bound: int | None = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.gamma is not None:
            if self.gamma != math.inf and (
                self.gamma <= 0 or int(self.gamma) != self.gamma
            ):
                raise ValueError(
                    f"gamma must be a positive integer or math.inf, got {self.gamma}"
                )
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.mode not in ("fast", "reference"):
            raise ValueError(
                f"mode must be 'fast' or 'reference', got {self.mode!r}"
            )
        check_kernel_backend(self.kernel_backend)
        if self.max_event_lag is not None and self.max_event_lag < 1:
            raise ValueError(
                f"max_event_lag must be >= 1, got {self.max_event_lag}"
            )
        if self.staleness_budget is not None and self.staleness_budget < 0:
            raise ValueError(
                f"staleness_budget must be >= 0, got {self.staleness_budget}"
            )
        if (
            self.max_dirty_per_refresh is not None
            and self.max_dirty_per_refresh < 1
        ):
            raise ValueError(
                f"max_dirty_per_refresh must be >= 1, got "
                f"{self.max_dirty_per_refresh}"
            )
        if self.queue_bound is not None and self.queue_bound < 1:
            raise ValueError(
                f"queue_bound must be >= 1, got {self.queue_bound}"
            )

    @property
    def effective_gamma(self) -> float:
        """``gamma`` with the paper's ``2k`` default applied."""
        return 2 * self.k if self.gamma is None else self.gamma
