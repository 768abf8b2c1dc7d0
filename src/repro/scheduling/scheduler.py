"""The bounded-staleness refresh scheduler.

:class:`RefreshScheduler` sits between ``index.apply()`` and
``index.refresh()``: events are **submitted** through it, it decides
*when* a refinement pass runs and *which* dirty users the pass covers,
and it applies admission control when arrivals outrun refresh capacity.
Exactness becomes a convergence guarantee instead of a per-event
invariant: the graph may serve stale rows while a burst is absorbed,
and :meth:`drain` (or simply load dropping below the budgets) restores
the bit-exact converged graph — the same graph ``auto_refresh=True``
would have maintained the whole time, verified by the drain-to-parity
suite against the differential-parity corpus.

Scheduling model
----------------
Every dirty user is stamped with the event sequence and wall-clock
time she first went dirty.  A submission triggers a scheduled pass
when any stamp violates the policy's ``max_event_lag`` or
``max_wall_staleness`` budget (with neither budget set, every
submission triggers a pass — the always-exact degenerate case).  A
scheduled pass under a ``max_dirty_per_refresh`` cap selects the
highest **blast-radius** dirty users first — in-degree from one
bincount over the index's rows
(:meth:`~repro.streaming.index.DynamicKnnIndex.referrer_counts`), i.e.
how many rows a user's refresh can invalidate — and defers the
low-impact tail; budget-violating users are always included, even past
the cap.

Deferral works at any shard count and on every executor because it is
implemented *inside* ``refresh(dirty_subset=...)``: deferred users
simply stay in the index's dirty set, which the WAL/checkpoint layer
already journals, so a crash + :meth:`restore` resumes with the same
pending set and the same convergence guarantee.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..streaming.events import EVENT_TYPES, ApplyResult, flatten_events
from ..streaming.index import DynamicKnnIndex, RefreshStats
from .policy import Backpressure, SchedulerPolicy

__all__ = ["RefreshScheduler", "SubmitResult"]


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one :meth:`RefreshScheduler.submit` call."""

    #: Primitive events applied (0 when the submission was rejected).
    accepted: int
    #: Primitive events refused by admission control.
    rejected: int
    #: User ids minted by AddUser events in the submission.
    new_users: tuple
    #: Refresh passes this submission triggered (shed + scheduled).
    refreshes: tuple
    #: The admission-control signal, when the queue bound was hit.
    backpressure: Backpressure | None
    #: Why a scheduled pass ran: ``"eager"``, ``"event_lag"``,
    #: ``"staleness"`` or None (no budget violated, work deferred).
    trigger: str | None
    #: The index's WAL-aligned sequence after the submission.
    last_seq: int

    @property
    def admitted(self) -> bool:
        """Did the events land (False only under ``"reject"`` mode)?"""
        return self.rejected == 0


class RefreshScheduler:
    """Schedules refreshes of a maintained index under a staleness budget.

    Parameters
    ----------
    index:
        A :class:`~repro.streaming.DynamicKnnIndex` (any shard count,
        any executor).  The scheduler takes ownership of refresh
        timing: ``auto_refresh`` is forced off, and all ingestion should
        flow through :meth:`submit`.
    policy:
        The :class:`SchedulerPolicy` budget; defaults to
        ``SchedulerPolicy()``, the always-exact policy.
    clock:
        Monotonic-seconds callable used for every wall-staleness
        decision (injectable so tests and benchmarks control time;
        defaults to :func:`time.monotonic`).

    Restored dirty users (an index recovered with ``refresh=False``)
    are stamped at construction time, so a restart resumes the same
    pending set with fresh staleness clocks.
    """

    def __init__(
        self,
        index: DynamicKnnIndex,
        policy: SchedulerPolicy | None = None,
        clock=time.monotonic,
    ):
        if index.closed:
            raise RuntimeError("cannot schedule a closed index")
        self.index = index
        self.policy = policy or SchedulerPolicy()
        self.clock = clock
        index.auto_refresh = False
        #: user -> (seq, wall) stamp of when she first went dirty.
        self._since: dict[int, tuple[int, float]] = {}
        #: Dirty users that have survived at least one scheduled pass.
        self._deferred: set[int] = set()
        self._stamp_new_dirty(index.last_seq)

    # ------------------------------------------------------------------
    # Ingestion with admission control
    # ------------------------------------------------------------------
    def submit(self, events) -> SubmitResult:
        """Apply *events* through the policy — the scheduled ingest path.

        Admission control runs first: at or past the queue bound, a
        :class:`Backpressure` signal is raised and the policy either
        sheds load with an immediate scheduled pass (``"refresh"``) or
        rejects the submission (``"reject"``, ``accepted == 0``; the
        caller retries after :meth:`refresh`/:meth:`tick`).  Admitted
        events are applied (journaled into any attached WAL), their
        dirty users stamped, and a scheduled pass runs if a staleness
        budget is violated — otherwise the work is deferred.
        """
        index = self.index
        refreshes: list[RefreshStats] = []
        backpressure = None
        if (
            self.policy.queue_bound is not None
            and self.queue_depth >= self.policy.queue_bound
        ):
            backpressure = Backpressure(
                queue_depth=self.queue_depth,
                queue_bound=self.policy.queue_bound,
                pending_events=index.pending_events,
                oldest_age=self.oldest_deferred_age,
            )
            index.maintenance.scheduler_backpressure += 1
            if self.policy.on_backpressure == "reject":
                rejected = self._count_primitives(events)
                index.maintenance.scheduler_events_rejected += rejected
                return SubmitResult(
                    accepted=0,
                    rejected=rejected,
                    new_users=(),
                    refreshes=(),
                    backpressure=backpressure,
                    trigger=None,
                    last_seq=index.last_seq,
                )
            # Shed until the queue is back under the bound — each pass
            # retires at least min(cap, depth) users and nothing new
            # arrives meanwhile, so this terminates.  The queue is then
            # bounded by queue_bound plus one burst at every admission
            # point.
            while self.queue_depth >= self.policy.queue_bound:
                refreshes.append(self.refresh())
        seq_before = index.last_seq
        applied: ApplyResult = index.apply(events)
        self._stamp_new_dirty(seq_before)
        trigger = self._violated_budget()
        if trigger is not None:
            refreshes.append(self.refresh())
        return SubmitResult(
            accepted=applied.events,
            rejected=0,
            new_users=applied.new_users,
            refreshes=tuple(refreshes),
            backpressure=backpressure,
            trigger=trigger,
            last_seq=index.last_seq,
        )

    # ------------------------------------------------------------------
    # Scheduled refinement
    # ------------------------------------------------------------------
    def refresh(self) -> RefreshStats:
        """Run one scheduled pass over the highest-impact dirty users.

        Under a ``max_dirty_per_refresh`` cap the pass selects dirty
        users by descending blast radius (ties broken by ascending user
        id, so passes are deterministic), always including every user
        whose staleness budget is already violated; the rest defer.
        Without a cap (or with the queue under it) the pass is a full
        refresh.
        """
        index = self.index
        dirty = np.fromiter(
            sorted(index.dirty_users), dtype=np.int64
        )
        cap = self.policy.max_dirty_per_refresh
        subset = None
        if cap is not None and dirty.size > cap:
            radius = index.referrer_counts(dirty)
            # Highest blast radius first; ascending id on ties.
            order = np.lexsort((dirty, -radius))
            chosen = set(dirty[order[:cap]].tolist())
            chosen.update(self._forced_users())
            subset = chosen
        stats = index.refresh(dirty_subset=subset)
        maintenance = index.maintenance
        maintenance.scheduler_passes += 1
        maintenance.scheduler_deferrals += stats.deferred_users
        self._prune_stamps()
        self._deferred = set(index.dirty_users)
        return stats

    def tick(self) -> RefreshStats | None:
        """Idle-time budget check (no new events).

        Runs a scheduled pass when a deferred user's wall-staleness (or
        event-lag) budget has been violated since the last submission —
        the hook a serving loop calls periodically so deferred work
        converges even when ingestion goes quiet.  Returns the pass's
        stats, or None when every budget holds.
        """
        if not self.index.dirty_users:
            return None
        if self._violated_budget() is None:
            return None
        return self.refresh()

    def drain(self) -> tuple[RefreshStats, ...]:
        """Complete all deferred work — the convergence barrier.

        Runs full refreshes until the dirty set and the pending-event
        count are both empty; afterwards the graph is bit-identical to
        the one an unscheduled (``auto_refresh=True``) index would hold
        on the same event history.  Idempotent: draining a clean index
        runs nothing.
        """
        index = self.index
        passes: list[RefreshStats] = []
        while index.dirty_users or index.pending_events:
            passes.append(index.refresh())
            index.maintenance.scheduler_passes += 1
        self._since.clear()
        self._deferred.clear()
        return tuple(passes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Dirty users awaiting a refresh (the ingest queue's depth)."""
        return len(self.index.dirty_users)

    @property
    def deferred_users(self) -> int:
        """Dirty users that have survived at least one scheduled pass."""
        if not self._deferred:
            return 0
        dirty = self.index.dirty_users
        return sum(1 for user in self._deferred if user in dirty)

    @property
    def oldest_deferred_age(self) -> float:
        """Seconds since the oldest queued dirty user went dirty."""
        if not self._since:
            return 0.0
        now = self.clock()
        return max(now - wall for _, wall in self._since.values())

    @property
    def oldest_event_lag(self) -> int:
        """Events applied since the oldest queued dirty user went dirty."""
        if not self._since:
            return 0
        seq = self.index.last_seq
        return max(seq - since for since, _ in self._since.values())

    def stats(self) -> dict:
        """Scheduler state for the serving stats op (plain JSON types)."""
        index = self.index
        version = index.snapshot_version
        return {
            "queue_depth": self.queue_depth,
            "queue_bound": self.policy.queue_bound,
            "deferred_users": self.deferred_users,
            "oldest_deferred_age": self.oldest_deferred_age,
            "oldest_event_lag": self.oldest_event_lag,
            "pending_events": index.pending_events,
            "scheduler_passes": index.maintenance.scheduler_passes,
            "scheduler_deferrals": index.maintenance.scheduler_deferrals,
            "backpressure_signals": (
                index.maintenance.scheduler_backpressure
            ),
            "events_rejected": (
                index.maintenance.scheduler_events_rejected
            ),
            "last_seq": index.last_seq,
            "snapshot_version": version,
            "snapshot_lag": index.last_seq - (version or 0),
        }

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path) -> Path:
        """Checkpoint the underlying index (deferred set included).

        The index's dirty set *is* the deferred queue, and checkpoints
        already serialize it — so scheduler durability needs no extra
        state beyond the staleness clocks, which restart on restore.
        """
        return self.index.checkpoint(directory)

    @classmethod
    def restore(
        cls,
        index_cls,
        directory: str | Path,
        policy: SchedulerPolicy | None = None,
        metric=None,
        fsync_every: int | None = 64,
        clock=time.monotonic,
        **index_kwargs,
    ) -> "RefreshScheduler":
        """Recover an index and resume scheduling its pending set.

        Restores *index_cls* from *directory* with ``refresh=False`` —
        checkpoint plus WAL-tail replay, **without** the closing
        refresh — so deferred-but-journaled events come back as the
        same dirty set they were before the crash, and the scheduler
        (not the restore path) decides when they are paid for.  The
        restored users' staleness clocks restart at restore time.
        """
        index = index_cls.restore(
            directory,
            metric=metric,
            refresh=False,
            fsync_every=fsync_every,
            **index_kwargs,
        )
        index.auto_refresh = False
        return cls(index, policy, clock=clock)

    def close(self) -> None:
        """Close the underlying index (idempotent)."""
        self.index.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stamp_new_dirty(self, seq_before: int) -> None:
        """Stamp users that went dirty since the last bookkeeping point."""
        now = self.clock()
        since = self._since
        for user in self.index.dirty_users:
            if user not in since:
                since[user] = (seq_before, now)

    def _prune_stamps(self) -> None:
        """Drop stamps of users a completed pass just cleaned."""
        dirty = self.index.dirty_users
        self._since = {
            user: stamp
            for user, stamp in self._since.items()
            if user in dirty
        }

    def _violated_budget(self) -> str | None:
        """Which budget (if any) forces a pass right now."""
        if not self.index.dirty_users:
            return None
        policy = self.policy
        if (
            policy.max_event_lag is None
            and policy.max_wall_staleness is None
        ):
            # No staleness budget: every submission refreshes (possibly
            # capped, deferring the tail) — the eager degenerate case.
            return "eager"
        if (
            policy.max_event_lag is not None
            and self.oldest_event_lag >= policy.max_event_lag
        ):
            return "event_lag"
        if (
            policy.max_wall_staleness is not None
            and self.oldest_deferred_age >= policy.max_wall_staleness
        ):
            return "staleness"
        return None

    def _forced_users(self) -> list[int]:
        """Queued users whose individual staleness budget is violated."""
        policy = self.policy
        if (
            policy.max_event_lag is None
            and policy.max_wall_staleness is None
        ):
            return []
        seq = self.index.last_seq
        now = self.clock()
        forced = []
        for user, (since_seq, since_wall) in self._since.items():
            if (
                policy.max_event_lag is not None
                and seq - since_seq >= policy.max_event_lag
            ) or (
                policy.max_wall_staleness is not None
                and now - since_wall >= policy.max_wall_staleness
            ):
                forced.append(user)
        return forced

    @staticmethod
    def _count_primitives(events) -> int:
        if isinstance(events, EVENT_TYPES):
            events = (events,)
        return sum(len(flatten_events(event)) for event in events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RefreshScheduler(queue_depth={self.queue_depth}, "
            f"deferred={self.deferred_users}, policy={self.policy})"
        )
