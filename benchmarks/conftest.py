"""Benchmark fixtures.

The benchmark suite regenerates every table and figure of the paper.  One
:class:`ExperimentContext` is shared across the whole session so that
expensive artefacts (datasets, exact ground-truth graphs, algorithm runs)
are computed exactly once and reused by the tables that share them — the
same measurement-reuse the paper's evaluation implies.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``laptop`` (default) — full laptop-scale datasets; the complete suite
  takes tens of minutes, dominated by NN-Descent/HyRec on DBLP (k=50),
  exactly as the paper's Table II is dominated by DBLP.
* ``tiny`` — a smoke run of every bench in a couple of minutes.

Rendered reports are written to ``benchmarks/reports/<name>.txt``; every
bench module additionally gets a machine-readable
``benchmarks/reports/BENCH_<module>.json`` (scale, per-test wall times,
and the ``benchmark.extra_info`` metrics), emitted by the session-finish
hook below.  CI uploads the JSON reports as artifacts and gates the
``--quick`` run against ``benchmarks/baselines/quick.json`` via
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext

from _bench_utils import write_bench_json


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "Smoke mode: force REPRO_BENCH_SCALE=tiny so every bench runs "
            "its smallest workload (the CI smoke job uses this)."
        ),
    )


def pytest_configure(config):
    if config.getoption("--quick"):
        # Set before bench modules import (they read the scale at import
        # time), so one flag flips the whole suite to the tiny workloads.
        os.environ["REPRO_BENCH_SCALE"] = "tiny"


def pytest_sessionfinish(session, exitstatus):
    """Emit ``BENCH_<module>.json`` next to the ``.txt`` reports.

    One JSON file per bench module, built from pytest-benchmark's
    session: every measured test contributes its wall time and its
    ``extra_info`` metrics (recall, savings, speedups, ...), which is
    what the CI regression gate consumes.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module: dict[str, list[dict]] = {}
    for bench in bench_session.benchmarks:
        module, _, test = bench.fullname.partition("::")
        stats = getattr(bench, "stats", None)
        by_module.setdefault(Path(module).stem, []).append(
            {
                "test": test,
                "group": bench.group,
                "wall_time_s": (
                    round(stats.mean, 6) if stats is not None else None
                ),
                "extra_info": dict(bench.extra_info),
            }
        )
    scale = os.environ.get("REPRO_BENCH_SCALE", "laptop")
    report_dir = Path(__file__).parent / "reports"
    for stem, results in sorted(by_module.items()):
        write_bench_json(
            stem,
            {
                "bench": stem,
                "scale": scale,
                "generated_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
                "results": sorted(results, key=lambda entry: entry["test"]),
            },
            report_dir,
        )


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    scale = os.environ.get("REPRO_BENCH_SCALE", "laptop")
    return ExperimentContext(scale=scale)


@pytest.fixture(scope="session")
def report_dir() -> Path:
    path = Path(__file__).parent / "reports"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture
def save_report(report_dir):
    """Write an ExperimentReport's rendering next to the benchmarks."""

    def _save(name: str, report) -> None:
        (report_dir / f"{name}.txt").write_text(
            report.render() + "\n", encoding="utf-8"
        )

    return _save
