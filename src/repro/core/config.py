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
        Use the lower-id-stores-the-pair strategy (Section II-D) in
        :func:`~repro.core.kiff.kiff` (and so in a dynamic index's
        ``rebuild()``).  It sets only how many similarities a build
        evaluates, never the converged graph; the ablation benches
        disable it to measure its effect.  A dynamic index's refresh
        always scores each pair once and offers it both ways.
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

    Refresh scheduling budgets live on
    :class:`repro.scheduling.SchedulerPolicy`: they decide when a
    refresh runs, never what it computes.
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

    @property
    def effective_gamma(self) -> float:
        """``gamma`` with the paper's ``2k`` default applied."""
        return 2 * self.k if self.gamma is None else self.gamma
