"""SchedulerPolicy validation and the Backpressure signal."""

import pytest

from repro import SchedulerPolicy
from repro.scheduling.policy import Backpressure


class TestValidation:
    def test_defaults_are_always_exact(self):
        policy = SchedulerPolicy()
        assert policy.always_exact
        assert policy.queue_bound is None
        assert policy.on_backpressure == "refresh"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_event_lag": 0},
            {"max_event_lag": -3},
            {"max_wall_staleness": -0.1},
            {"max_wall_staleness": float("inf")},
            {"max_wall_staleness": float("nan")},
            {"max_dirty_per_refresh": 0},
            {"queue_bound": 0},
            {"on_backpressure": "drop"},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerPolicy(**kwargs)

    def test_zero_wall_staleness_is_legal(self):
        """Budget 0 means 'refresh whenever anyone is dirty' — valid."""
        policy = SchedulerPolicy(max_wall_staleness=0.0)
        assert policy.max_wall_staleness == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_event_lag": 5},
            {"max_wall_staleness": 2.0},
            {"max_dirty_per_refresh": 3},
        ],
    )
    def test_any_staleness_knob_breaks_always_exact(self, kwargs):
        assert not SchedulerPolicy(**kwargs).always_exact

    def test_queue_bound_alone_stays_always_exact(self):
        """Admission control without staleness knobs never defers."""
        assert SchedulerPolicy(queue_bound=4).always_exact


class TestBackpressure:
    def test_signal_renders_its_fields(self):
        signal = Backpressure(
            queue_depth=7, queue_bound=5, pending_events=12, oldest_age=0.25
        )
        text = str(signal)
        assert "7/5" in text
        assert "12 pending" in text
