"""Alternating A/B pairs of the end-to-end benchmark between two checkouts.

Runs ``perfbench/run.py --workload W --seed S --seconds T`` (untraced)
from a parent checkout and a changed checkout, in alternating order for
N pairs — the parent first in even pairs, the change first in odd ones
— so a drift of the host's speed hits both sides alike.  Every run is
its own process started in its checkout's root, so each side measures
its own sources; nothing here imports or touches ``perfbench/``.

A run that exits non-zero, or whose result line has ``correct: false``
or ``failed > 0``, stops the comparison: its numbers mean nothing.
Every run's metrics are printed as it finishes; at the end, for each
end-to-end metric of the change's ``BENCHMARK.json``, the parent's
median with its interquartile range, the change's median, the number
of pairs in which the change did better, and how much worse the
change's median is than the parent's as a share of it, against the
metric's ``bound`` (:func:`bound_move`); a metric worse by more than
its bound is flagged ``PAST BOUND``.

Usage, from the repository root (the parent checkout made with
``git archive``, outside the working tree)::

    mkdir -p ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload flash-durable --pairs 10
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One untraced benchmark run in *checkout*; its metric values."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if (
        done.returncode != 0
        or result is None
        or not result.get("correct")
        or result.get("failed", 1) > 0
    ):
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        verdict = {
            key: (result or {}).get(key) for key in ("correct", "failed")
        }
        raise SystemExit(
            f"refused: {checkout} {workload} seed {seed} exited "
            f"{done.returncode}, {verdict}"
        )
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    """``(q1, q3)`` of *values* (equal for a single value)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def bound_move(
    parent: float, change: float, better: str, bound: float
) -> tuple[float, bool]:
    """``(worse, past)``: how much worse *change* is than *parent*, as a
    share of *parent* — negative when it is better, *better* being
    ``"lower"`` or ``"higher"`` — and whether that exceeds *bound*."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        worse = math.copysign(math.inf, delta) if delta else 0.0
    else:
        worse = delta / abs(parent)
    return worse, worse > bound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_once(
                sides[side], args.workload, args.seed, args.seconds
            )
            runs[side].append(values)
            shown = " ".join(f"{name}={values.get(name)!r}" for name in better)
            print(f"pair {pair + 1} {side}: {shown}", flush=True)
    print(
        f"\n{args.workload} seed {args.seed}, {args.pairs} pairs: "
        "parent median [IQR] -> change median (change wins), "
        "change worse by (bound)"
    )
    for name, direction in better.items():
        parent = [values[name] for values in runs["parent"]]
        change = [values[name] for values in runs["change"]]
        if None in parent or None in change:
            print(f"{name}: no value")
            continue
        q1, q3 = quartiles(parent)
        wins = sum(
            (c < p) if direction == "lower" else (c > p)
            for p, c in zip(parent, change)
        )
        medians = statistics.median(parent), statistics.median(change)
        worse, past = bound_move(*medians, direction, bounds[name])
        print(
            f"{name}: {medians[0]:.6g} [{q3 - q1:.3g}] -> "
            f"{medians[1]:.6g} ({wins}/{args.pairs}), worse by "
            f"{worse:+.1%} ({bounds[name]:.0%})"
            + (" PAST BOUND" if past else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
