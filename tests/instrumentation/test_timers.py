"""Unit tests for the phase timer."""

import time

import pytest

from repro.instrumentation.timers import PHASES, PhaseTimer


class TestPhaseTimer:
    def test_single_phase(self):
        timer = PhaseTimer()
        with timer.phase("similarity"):
            time.sleep(0.01)
        assert timer.get("similarity") >= 0.01

    def test_phases_accumulate(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("work"):
                time.sleep(0.002)
        assert timer.get("work") >= 0.006

    def test_unknown_phase_is_zero(self):
        assert PhaseTimer().get("nothing") == 0.0

    def test_total_sums_phases(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.002)
        with timer.phase("b"):
            time.sleep(0.002)
        assert timer.total == pytest.approx(
            timer.get("a") + timer.get("b")
        )

    def test_reentrant_same_phase_raises(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError, match="already active"):
            with timer.phase("x"):
                with timer.phase("x"):
                    pass

    def test_nested_phases_are_exclusive(self):
        """Inner phase time is not double-counted into the outer phase."""
        timer = PhaseTimer()
        with timer.phase("outer"):
            time.sleep(0.005)
            with timer.phase("inner"):
                time.sleep(0.02)
        assert timer.get("inner") >= 0.02
        assert timer.get("outer") < 0.02
        assert timer.total == pytest.approx(
            timer.get("inner") + timer.get("outer")
        )

    def test_exception_still_records_time(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("x"):
                time.sleep(0.002)
                raise RuntimeError("boom")
        assert timer.get("x") >= 0.002
        # Phase stack is clean: the phase can be entered again.
        with timer.phase("x"):
            pass

    def test_fractions_sum_to_one(self, monkeypatch):
        # A scripted clock: phase a spans 2 s, phase b 4 s.
        ticks = iter([10.0, 12.0, 20.0, 24.0])
        monkeypatch.setattr(
            "repro.instrumentation.timers.time.perf_counter",
            lambda: next(ticks),
        )
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        monkeypatch.undo()
        fractions = timer.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["b"] > fractions["a"]

    def test_fractions_empty_when_untimed(self):
        assert PhaseTimer().fractions() == {}

    def test_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        with a.phase("x"):
            time.sleep(0.002)
        with b.phase("x"):
            time.sleep(0.002)
        with b.phase("y"):
            pass
        merged = a.merge(b)
        assert merged.get("x") == pytest.approx(a.get("x") + b.get("x"))
        assert "y" in merged.seconds

    def test_as_breakdown_has_canonical_phases(self):
        breakdown = PhaseTimer().as_breakdown()
        assert tuple(breakdown) == PHASES
        assert all(value == 0.0 for value in breakdown.values())
