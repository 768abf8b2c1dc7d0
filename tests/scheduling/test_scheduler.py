"""RefreshScheduler mechanics: triggers, prioritization, backpressure.

Parity across full policy/index/executor matrices lives in
``test_drain_parity.py``; these tests pin the scheduling decisions
themselves on small deterministic indexes with an injected clock.
"""

import numpy as np
import pytest

from repro import (
    DynamicKnnIndex,
    KiffConfig,
    RefreshScheduler,
    SchedulerPolicy,
)
from repro.persistence import PartitionedWriteAheadLog
from repro.streaming import AddUser, cold_rebuild_graph, ratings_batch
from tests.conftest import random_dataset


class FakeClock:
    """A manually advanced monotonic clock for staleness budgets."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def index():
    dataset = random_dataset(
        n_users=16, n_items=12, density=0.2, seed=3, ratings=True
    )
    ix = DynamicKnnIndex(dataset, KiffConfig(k=4), auto_refresh=False)
    yield ix
    ix.close()


def batch_for(users, item=0, rating=4.0):
    return ratings_batch(
        users, [item] * len(users), [rating] * len(users)
    )


class TestEagerDefault:
    def test_takes_over_auto_refresh(self, index):
        index.auto_refresh = True
        RefreshScheduler(index)
        assert index.auto_refresh is False

    def test_refuses_closed_index(self, index):
        index.close()
        with pytest.raises(RuntimeError, match="closed"):
            RefreshScheduler(index)

    def test_no_policy_refreshes_every_submission(self, index):
        scheduler = RefreshScheduler(index)
        result = scheduler.submit(batch_for([0, 1]))
        assert result.trigger == "eager"
        assert len(result.refreshes) == 1
        assert scheduler.queue_depth == 0
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_submit_reports_new_users(self, index):
        scheduler = RefreshScheduler(index)
        result = scheduler.submit(AddUser((0, 1), (4.0, 3.0)))
        assert result.new_users == (16,)
        assert result.accepted == 1

    def test_empty_submission_is_a_no_op(self, index):
        scheduler = RefreshScheduler(index)
        result = scheduler.submit(batch_for([]))
        assert result.accepted == 0
        assert result.trigger is None
        assert result.refreshes == ()


class TestEventLagBudget:
    def test_defers_until_lag_budget_violated(self, index):
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_event_lag=5)
        )
        first = scheduler.submit(batch_for([0, 1]))
        assert first.trigger is None  # lag 2 < 5, deferred
        assert scheduler.queue_depth == 2
        assert scheduler.oldest_event_lag == 2
        second = scheduler.submit(batch_for([2, 3]))
        assert second.trigger is None  # oldest lag 4 < 5
        third = scheduler.submit(batch_for([4, 5]))
        assert third.trigger == "event_lag"  # oldest lag 6 >= 5
        assert scheduler.queue_depth == 0
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_lag_of_one_is_always_exact(self, index):
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_event_lag=1)
        )
        for user in range(4):
            result = scheduler.submit(batch_for([user]))
            assert result.trigger == "event_lag"
            assert scheduler.queue_depth == 0


class TestWallStalenessBudget:
    def test_tick_fires_when_budget_expires(self, index):
        clock = FakeClock()
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_wall_staleness=5.0), clock=clock
        )
        assert scheduler.submit(batch_for([0, 1])).trigger is None
        clock.advance(1.0)
        assert scheduler.tick() is None  # age 1 < 5
        assert scheduler.oldest_deferred_age == pytest.approx(1.0)
        clock.advance(4.5)
        stats = scheduler.tick()  # age 5.5 >= 5
        assert stats is not None
        assert scheduler.queue_depth == 0
        assert scheduler.oldest_deferred_age == 0.0

    def test_tick_on_clean_index_is_none(self, index):
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_wall_staleness=0.0)
        )
        assert scheduler.tick() is None

    def test_submission_can_trigger_staleness(self, index):
        clock = FakeClock()
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_wall_staleness=2.0), clock=clock
        )
        scheduler.submit(batch_for([0]))
        clock.advance(3.0)
        result = scheduler.submit(batch_for([1]))
        assert result.trigger == "staleness"
        assert scheduler.queue_depth == 0


class TestBlastRadiusCap:
    def test_capped_pass_picks_highest_in_degree_first(self, index):
        index.refresh()
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(max_event_lag=100, max_dirty_per_refresh=1),
        )
        scheduler.submit(batch_for([2, 7, 11], item=1))
        before = set(index.dirty_users)
        assert before == {2, 7, 11}
        dirty = np.array(sorted(before), dtype=np.int64)
        radius = index.referrer_counts(dirty)
        expected = int(dirty[np.lexsort((dirty, -radius))[0]])
        stats = scheduler.refresh()
        cleaned = before - set(index.dirty_users)
        assert cleaned == {expected}
        assert stats.deferred_users == 2
        assert scheduler.deferred_users == 2

    def test_budget_violating_users_bypass_the_cap(self, index):
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(max_event_lag=4, max_dirty_per_refresh=1),
        )
        scheduler.submit(batch_for([0, 1, 2]))  # lag 3: deferred
        result = scheduler.submit(batch_for([3]))  # oldest lag 4: forced
        assert result.trigger == "event_lag"
        # All three over-budget users ran despite the cap of 1; only the
        # fresh user 3 (lag 1) may remain deferred.
        assert set(index.dirty_users) <= {3}

    def test_uncapped_pass_is_a_full_refresh(self, index):
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_event_lag=100)
        )
        scheduler.submit(batch_for([0, 1, 2, 3]))
        stats = scheduler.refresh()
        assert stats.deferred_users == 0
        assert scheduler.queue_depth == 0


class TestBackpressure:
    def test_refresh_mode_sheds_down_below_the_bound(self, index):
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(
                max_event_lag=100,
                max_dirty_per_refresh=1,
                queue_bound=2,
            ),
        )
        assert scheduler.submit(batch_for([0, 1])).backpressure is None
        result = scheduler.submit(batch_for([2]))
        assert result.admitted
        assert result.backpressure is not None
        assert result.backpressure.queue_depth == 2
        assert len(result.refreshes) >= 1  # the shedding pass(es)
        assert scheduler.queue_depth < 2 + 1 + 1  # bound + this burst
        assert index.maintenance.scheduler_backpressure == 1

    def test_reject_mode_refuses_and_applies_nothing(self, index):
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(
                max_event_lag=100,
                queue_bound=2,
                on_backpressure="reject",
            ),
        )
        scheduler.submit(batch_for([0, 1]))
        seq_before = index.last_seq
        result = scheduler.submit(batch_for([2, 3]))
        assert not result.admitted
        assert result.accepted == 0
        assert result.rejected == 2
        assert result.backpressure is not None
        assert index.last_seq == seq_before  # nothing journaled/applied
        assert index.maintenance.scheduler_events_rejected == 2
        # The caller-side contract: refresh, then the retry is admitted.
        scheduler.refresh()
        retry = scheduler.submit(batch_for([2, 3]))
        assert retry.admitted
        assert retry.accepted == 2

    def test_no_bound_means_no_backpressure(self, index):
        scheduler = RefreshScheduler(
            index, SchedulerPolicy(max_event_lag=1000)
        )
        for lo in range(0, 12, 2):
            result = scheduler.submit(batch_for([lo % 16, (lo + 1) % 16]))
            assert result.backpressure is None


class TestDrainAndStats:
    def test_drain_converges_and_empties_the_queue(self, index):
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(max_event_lag=1000, max_dirty_per_refresh=2),
        )
        scheduler.submit(batch_for([0, 1, 2, 3, 4], item=2))
        passes = scheduler.drain()
        assert len(passes) >= 1
        assert scheduler.queue_depth == 0
        assert index.pending_events == 0
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)
        assert scheduler.drain() == ()  # idempotent

    def test_stats_snapshot(self, index):
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(max_event_lag=100, queue_bound=50),
        )
        scheduler.submit(batch_for([0, 1]))
        stats = scheduler.stats()
        assert stats["queue_depth"] == 2
        assert stats["queue_bound"] == 50
        assert stats["pending_events"] == 2
        assert stats["last_seq"] == 2
        assert stats["scheduler_passes"] == 0
        assert stats["snapshot_lag"] == 2
        scheduler.drain()
        stats = scheduler.stats()
        assert stats["queue_depth"] == 0
        assert stats["snapshot_lag"] == 0

    def test_counters_accumulate(self, index):
        scheduler = RefreshScheduler(
            index,
            SchedulerPolicy(max_event_lag=4, max_dirty_per_refresh=1),
        )
        scheduler.submit(batch_for([0, 1]))  # lag 2: deferred
        # Oldest lag hits 4: the pass runs forced {0, 1} plus at most
        # one capped pick, so at least one of {2, 3} defers.
        scheduler.submit(batch_for([2, 3]))
        maintenance = index.maintenance
        assert maintenance.scheduler_passes >= 1
        assert maintenance.scheduler_deferrals >= 1


class TestDurability:
    def test_restore_resumes_the_deferred_set(self, tmp_path):
        dataset = random_dataset(
            n_users=14, n_items=10, density=0.2, seed=8, ratings=True
        )
        state = tmp_path / "state"
        policy = SchedulerPolicy(max_event_lag=100, max_dirty_per_refresh=1)
        live = RefreshScheduler(
            DynamicKnnIndex(
                dataset,
                KiffConfig(k=3),
                auto_refresh=False,
                wal=PartitionedWriteAheadLog(state, 1, fsync_every=1),
            ),
            policy,
        )
        live.checkpoint(state)
        # Half-integer ratings cannot duplicate the integer-rated base
        # dataset, so every event genuinely dirties its user.
        live.submit(batch_for([0, 1, 2], item=1, rating=2.5))
        live.refresh()  # retires one user, defers two
        # Checkpoint the mid-drain state: the deferred set rides along.
        live.checkpoint(state)
        live.submit(batch_for([3], item=2, rating=2.5))
        deferred = set(live.index.dirty_users)
        assert len(deferred) == 3
        del live  # the crash: in-memory state is gone

        restored = RefreshScheduler.restore(DynamicKnnIndex, state, policy)
        try:
            assert set(restored.index.dirty_users) == deferred
            assert restored.queue_depth == 3
            restored.drain()
            assert restored.index.graph == cold_rebuild_graph(
                restored.index.dataset, restored.index.config
            )
        finally:
            restored.close()

    def test_checkpoint_delegates_to_the_index(self, index, tmp_path):
        scheduler = RefreshScheduler(index)
        path = scheduler.checkpoint(tmp_path / "state")
        assert path.exists()

    def test_close_is_idempotent(self, index):
        scheduler = RefreshScheduler(index)
        scheduler.close()
        scheduler.close()
        assert index.closed
