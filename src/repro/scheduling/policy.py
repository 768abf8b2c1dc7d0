"""Scheduling policies and backpressure signals.

A :class:`SchedulerPolicy` is the staleness/latency budget a
:class:`~repro.scheduling.RefreshScheduler` enforces between
``apply()`` and ``refresh()``.  Every knob is optional; with none set
the scheduler degenerates to the always-exact behavior of
``auto_refresh=True`` (one full refresh per submission), which is what
makes the scheduled path a strict generalisation of the PR 1–7
pipeline.

The knobs compose as *budgets*, not hints:

* ``max_event_lag`` — no dirty user may trail the applied event
  sequence by more than this many events before a refresh covers her.
* ``max_wall_staleness`` — no dirty user may stay deferred longer than
  this many wall-clock seconds (measured on the scheduler's injectable
  clock, so tests and benchmarks stay deterministic).
* ``max_dirty_per_refresh`` — a scheduled pass processes at most this
  many dirty users, highest blast radius first; the tail is deferred.
  Budget beats cap: users forced by the two staleness budgets are
  always included, even past the cap.
* ``queue_bound`` — admission control: when the dirty-user queue
  reaches the bound, a submission raises a caller-visible
  :class:`Backpressure` signal and either sheds load with an immediate
  scheduled pass (``on_backpressure="refresh"``) or rejects the events
  outright (``"reject"``), leaving the caller to retry after a
  ``refresh()``/``tick()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Backpressure", "SchedulerPolicy"]

#: Valid admission-control reactions when the queue bound is hit.
BACKPRESSURE_MODES = ("refresh", "reject")


@dataclass(frozen=True)
class SchedulerPolicy:
    """The staleness/latency budget of one scheduler (all knobs optional).

    Parameters
    ----------
    max_event_lag:
        Maximum applied events a dirty user may trail before a refresh
        is forced (``None`` = unbounded).
    max_wall_staleness:
        Maximum wall-clock seconds a dirty user may stay deferred
        before a refresh is forced (``None`` = unbounded).
    max_dirty_per_refresh:
        Per-pass cap on dirty users processed; the low-blast-radius
        tail beyond it is deferred (``None`` = no cap: every pass is a
        full refresh).
    queue_bound:
        Dirty-user queue bound for admission control (``None`` = no
        admission control, backpressure never fires).
    on_backpressure:
        ``"refresh"`` (default) sheds load with an immediate scheduled
        pass and then admits; ``"reject"`` refuses the submission.
    """

    max_event_lag: int | None = None
    max_wall_staleness: float | None = None
    max_dirty_per_refresh: int | None = None
    queue_bound: int | None = None
    on_backpressure: str = "refresh"

    def __post_init__(self) -> None:
        if self.max_event_lag is not None and self.max_event_lag < 1:
            raise ValueError(
                f"max_event_lag must be >= 1, got {self.max_event_lag}"
            )
        if self.max_wall_staleness is not None and (
            self.max_wall_staleness < 0
            or not math.isfinite(self.max_wall_staleness)
        ):
            raise ValueError(
                f"max_wall_staleness must be finite and >= 0, got "
                f"{self.max_wall_staleness}"
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
        if self.on_backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"on_backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.on_backpressure!r}"
            )

    @property
    def always_exact(self) -> bool:
        """No staleness knob set: refresh fully on every submission."""
        return (
            self.max_event_lag is None
            and self.max_wall_staleness is None
            and self.max_dirty_per_refresh is None
        )


@dataclass(frozen=True)
class Backpressure:
    """Caller-visible admission-control signal (the queue bound was hit).

    Carried on the :class:`~repro.scheduling.SubmitResult` of the
    submission that hit the bound; under ``on_backpressure="reject"``
    it accompanies ``accepted == 0`` and the caller owns the retry.
    """

    #: Dirty users queued when the signal fired.
    queue_depth: int
    #: The policy's configured bound.
    queue_bound: int
    #: Events absorbed but not yet covered by any refresh.
    pending_events: int
    #: Age in seconds of the oldest queued dirty user (0.0 if none).
    oldest_age: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"backpressure: queue {self.queue_depth}/{self.queue_bound}, "
            f"{self.pending_events} pending events, oldest "
            f"{self.oldest_age:.3f}s"
        )
