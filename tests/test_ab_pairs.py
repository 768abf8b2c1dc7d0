"""The bound arithmetic of ``scripts/ab_pairs.py`` on fixed numbers."""

import importlib.util
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


@pytest.mark.parametrize(
    "parent, change, better, bound, worse, past",
    [
        # Lower is better: a rise is worse.
        (2.0, 2.4, "lower", 0.25, 0.2, False),
        (2.0, 2.6, "lower", 0.25, 0.3, True),
        (2.0, 1.5, "lower", 0.25, -0.25, False),
        # Higher is better: a fall is worse.
        (4000.0, 3200.0, "higher", 0.25, 0.2, False),
        (4000.0, 2800.0, "higher", 0.25, 0.3, True),
        (4000.0, 5000.0, "higher", 0.25, -0.25, False),
        # Exactly at the bound is not past it.
        (100.0, 110.0, "lower", 0.1, 0.1, False),
        # A zero parent: any worse move is infinitely worse.
        (0.0, 0.0, "lower", 0.25, 0.0, False),
        (0.0, 1.0, "lower", 0.25, math.inf, True),
        (0.0, 1.0, "higher", 0.25, -math.inf, False),
    ],
)
def test_bound_move(parent, change, better, bound, worse, past):
    moved, flagged = ab_pairs.bound_move(parent, change, better, bound)
    assert moved == pytest.approx(worse)
    assert flagged is past
