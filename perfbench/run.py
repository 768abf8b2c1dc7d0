"""Benchmark entry point: one workload, one process, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-bulk --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` installs the layer wrappers of
``perfbench/tracing.py`` and reports the per-layer metrics instead; the
raw spans go to ``.perfbench_out/trace-<workload>-<seed>.{npz,json}``.
The last line of standard output is the result object; a summary with
sample counts precedes it.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Tails are reported only with at least this many samples beyond them.
MIN_TAIL_SAMPLES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_events_per_s", "1/s"),
    ("freshness_p50_s", "s"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (host speed at this moment)."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def percentile(samples, q: float, label: str, problems: list) -> float:
    """The *q*-th percentile, refused when too few samples lie beyond."""
    import numpy as np

    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        problems.append(
            f"{label}: {n} samples leave {beyond:.1f} beyond p{q:g}; "
            f"need {MIN_TAIL_SAMPLES}"
        )
        return float("nan")
    if n == 0:
        problems.append(f"{label}: no samples")
        return float("nan")
    return float(np.percentile(samples, q))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(samples, problems: list) -> tuple[dict, dict]:
    """The user-visible metrics of one untraced run.

    Returns ``(gated, ungated)``.  The ungated tails are printed but
    not declared in ``BENCHMARK.json``: on a 2-vCPU VM their
    run-to-run spread exceeded the largest bound a metric may have
    (see ``README.md``).
    """
    fresh50 = percentile(samples.freshness_s, 50, "freshness", problems)
    ungated = {
        "freshness_p95_s": percentile(
            samples.freshness_s, 95, "freshness", problems
        )
    }
    if samples.read_s:
        ungated["read_p50_s"] = percentile(samples.read_s, 50, "read", problems)
        ungated["read_p99_s"] = percentile(samples.read_s, 99, "read", problems)
    # A tail below its own median is a measurement defect, never data.
    for label, p50, tail in (
        ("freshness", fresh50, ungated["freshness_p95_s"]),
        ("read", ungated.get("read_p50_s"), ungated.get("read_p99_s")),
    ):
        if tail is not None and tail < p50:
            problems.append(f"{label}: tail {tail} below p50 {p50}")
    gated = {
        "setup_s": statistics.median(samples.setup_s),
        "ingest_events_per_s": samples.stream_events / samples.stream_wall_s,
        "freshness_p50_s": fresh50,
        # The mean, like a throughput: the host's speed toggles between
        # spells of seconds, and a median of restores flips with
        # whichever spell holds most of them.
        "recover_s": statistics.fmean(samples.recover_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    return gated, ungated


def per_layer(samples, tracer, calib: list, span_cost: float) -> dict:
    """The traced run's layer metrics, per measured pass."""
    import numpy as np

    summary = tracer.summary()
    counts = tracer.counts
    passes = samples.passes

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0) / passes

    def count(name: str) -> float:
        return counts.get(name, 0.0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    answers = tracer.durations("serving.answer")
    refresh_busy = span("streaming.refresh", "busy_s")
    hits = count("streaming.refresh.cache_hits")
    misses = count("streaming.refresh.cache_misses")
    checkpoints = span("persistence.checkpoint", "calls")
    restores = span("persistence.restore", "calls")
    layer = samples.layer
    return {
        "graph.merge.calls": span("graph.merge", "calls"),
        "graph.merge.busy_s": span("graph.merge", "busy_s"),
        "graph.merge.offers": count("graph.merge.offers"),
        "graph.merge.rows": count("graph.merge.rows"),
        "graph.merge.changes": count("graph.merge.changes"),
        "graph.merge.accept_ratio": ratio(
            count("graph.merge.changes"), count("graph.merge.offers")
        ),
        "streaming.refresh.calls": span("streaming.refresh", "calls"),
        "streaming.refresh.busy_s": refresh_busy,
        "streaming.refresh.self_s": span("streaming.refresh", "self_s"),
        "streaming.refresh.child_s": span("streaming.refresh", "child_s"),
        "streaming.refresh.affected_users": count(
            "streaming.refresh.affected_users"
        ),
        "streaming.refresh.evaluations": count(
            "streaming.refresh.evaluations"
        ),
        "streaming.refresh.cache_hit_ratio": ratio(hits, hits + misses),
        "graph.reverse.calls": span("graph.reverse", "calls"),
        "graph.reverse.busy_s": span("graph.reverse", "busy_s"),
        "similarity.kernel.calls": span("similarity.kernel", "calls"),
        "similarity.kernel.busy_s": span("similarity.kernel", "busy_s"),
        "similarity.kernel.pairs": count("similarity.kernel.pairs"),
        "similarity.kernel.refresh_share": ratio(
            tracer.busy_under("similarity.kernel", "streaming.refresh")
            / passes,
            refresh_busy,
        ),
        "similarity.rebind.busy_s": span("similarity.rebind", "busy_s"),
        "core.kiff.busy_s": span("core.kiff", "busy_s"),
        "core.kiff.evaluations": count("core.kiff.evaluations"),
        "datasets.snapshot.busy_s": span("datasets.snapshot", "busy_s"),
        "datasets.rows_materialized": count("datasets.rows_materialized"),
        "streaming.shard_plan.busy_s": span(
            "streaming.shard_plan", "busy_s"
        ),
        "streaming.shard_merge.busy_s": span(
            "streaming.shard_merge", "busy_s"
        ),
        "streaming.outbox_pairs": count("streaming.outbox_pairs"),
        "scheduling.submit.busy_s": span("scheduling.submit", "busy_s"),
        "scheduling.passes": count("scheduling.passes"),
        "scheduling.deferrals": count("scheduling.deferrals"),
        "scheduling.queue_depth_max": tracer.maxima.get(
            "scheduling.queue_depth_max", 0.0
        ),
        "persistence.wal.append.calls": span(
            "persistence.wal.append", "calls"
        ),
        "persistence.wal.append.busy_s": span(
            "persistence.wal.append", "busy_s"
        ),
        "persistence.wal.bytes_per_event": ratio(
            count("persistence.wal.bytes"), count("persistence.wal.events")
        ),
        "persistence.checkpoint.busy_s": span(
            "persistence.checkpoint", "busy_s"
        ),
        "persistence.checkpoint.bytes": ratio(
            count("persistence.checkpoint.bytes"), checkpoints
        ),
        "persistence.restore.replayed_events": ratio(
            count("persistence.restore.replayed_events"), restores
        ),
        "persistence.restore.refresh_s": ratio(
            count("persistence.restore.refresh_s"), restores
        ),
        "serving.capture.calls": span("serving.capture", "calls"),
        "serving.capture.busy_s": span("serving.capture", "busy_s"),
        "serving.answer.busy_s": span("serving.answer", "busy_s"),
        "serving.answer.p99_s": float(np.percentile(answers, 99))
        if answers.size else 0.0,
        "serving.requests": layer.get("serving.requests", 0.0),
        "serving.batch_size_mean": layer.get("serving.batch_size_mean", 0.0),
        "streaming.apply.calls": span("streaming.apply", "calls"),
        "streaming.apply.busy_s": span("streaming.apply", "busy_s"),
        "streaming.writer.busy_share": layer.get(
            "streaming.writer.busy_share", 0.0
        ),
        "streaming.backlog_events_max": layer.get(
            "streaming.backlog_events_max", 0.0
        ),
        "host.calib_s": statistics.fmean(calib),
        "gen.read.late_p99_s": layer.get("gen.read.late_p99_s", 0.0),
        "trace.overhead_share": ratio(
            tracer.n_spans() * span_cost, tracer.active_s
        ),
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(("bytes", "bytes_per_event")):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; expected one of "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = None
    span_cost = 0.0
    if args.trace:
        from tracing import Tracer, install_layer_wrappers

        tracer = Tracer()
        span_cost = tracer.span_cost()
        install_layer_wrappers(tracer)
    calib = [calibrate()]
    run = Run(args.seed, args.seconds, workdir, tracer)
    try:
        samples = WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib.append(calibrate())
    problems = list(samples.problems)
    ungated = {}
    if tracer is None:
        metrics, ungated = end_to_end(samples, problems)
        units = dict(END_TO_END)
    else:
        tracer.uninstall()
        metrics = per_layer(samples, tracer, calib, span_cost)
        units = {name: layer_unit(name) for name in metrics}
        tracer.dump(
            OUT_DIR / f"trace-{args.workload}-{args.seed}",
            {"workload": args.workload, "seed": args.seed,
             "passes": samples.passes, "calib_s": calib,
             "span_cost_s": span_cost},
        )
    correct = samples.failed == 0 and not problems
    # Problems found while summarising (too few tail samples, a tail
    # below its median) count as failures too.
    failed = samples.failed + len(problems) - len(samples.problems)
    print(
        f"# {args.workload} seed={args.seed} passes={samples.passes} "
        f"events={samples.stream_events} "
        f"freshness_samples={len(samples.freshness_s)} "
        f"read_samples={len(samples.read_s)} "
        f"setup_samples={len(samples.setup_s)} "
        f"recover_samples={len(samples.recover_s)} "
        f"calib_s={calib[0]:.4f}/{calib[1]:.4f}"
    )
    if ungated:
        print(
            "# ungated (s): "
            + " ".join(f"{name}={value:.6g}" for name, value in ungated.items())
        )
    print(
        "# setup_s samples: "
        + " ".join(f"{x:.4f}" for x in samples.setup_s)
        + "; recover_s samples: "
        + " ".join(f"{x:.4f}" for x in samples.recover_s)
    )
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": samples.attempted,
                "failed": failed,
                "metrics": {
                    name: {
                        "value": None if math.isnan(value) else value,
                        "unit": units[name],
                    }
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
