"""Unit tests for the CLI."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableXL"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "laptop"
        assert args.metric == "cosine"
        assert args.seed == 0

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "galactic"])


class TestMain:
    def test_runs_single_experiment(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "regenerated" in out

    def test_runs_figure(self, capsys):
        assert main(["figure4", "--scale", "tiny"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_metric_forwarded(self, capsys):
        assert main(["table1", "--scale", "tiny", "--metric", "jaccard"]) == 0


class TestStreamCommand:
    def test_stream_command_reports_parity(self, capsys):
        assert main(["stream", "--scale", "tiny", "--batch-size", "25"]) == 0
        out = capsys.readouterr().out
        assert "events streamed" in out
        assert "savings" in out
        parity_line = next(
            line for line in out.splitlines() if "parity" in line
        )
        assert "True" in parity_line

    def test_stream_fraction_validated_by_parser(self, capsys):
        """Bad fractions are an argparse usage error, not a traceback."""
        with pytest.raises(SystemExit):
            main(["stream", "--scale", "tiny", "--stream-fraction", "1.5"])
        assert "between 0 and 1" in capsys.readouterr().err

    def test_stream_with_wal_writes_durable_state(self, capsys, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        assert (
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--batch-size",
                    "50",
                    "--wal",
                    str(wal_path),
                    "--checkpoint-every",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wal" in out
        # A .jsonl path names the state directory it sits in.
        assert (tmp_path / "wal-0.jsonl").exists()
        assert not wal_path.exists()
        assert list(tmp_path.glob("checkpoint-*.shards"))

    def test_checkpoint_every_requires_wal(self, capsys):
        argv = ["stream", "--scale", "tiny", "--checkpoint-every", "5"]
        assert main(argv) == 2
        assert "--wal" in capsys.readouterr().err

    def test_checkpoint_every_zero_is_a_usage_error(self, capsys, tmp_path):
        """--checkpoint-every 0 must be a one-line exit-2 message, not a
        ValueError traceback from replay_stream."""
        assert (
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--wal",
                    str(tmp_path / "wal.jsonl"),
                    "--checkpoint-every",
                    "0",
                ]
            )
            == 2
        )
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stream", "serve"])
    @pytest.mark.parametrize("budget", ["inf", "nan", "-1"])
    def test_bad_staleness_budget_is_a_usage_error(
        self, capsys, command, budget
    ):
        """A budget the SchedulerPolicy rejects must be a one-line exit-2
        message, not a ValueError traceback."""
        argv = [command, "--scale", "tiny", "--staleness-budget", budget]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "max_wall_staleness" in err

    def test_shards_must_be_positive(self, capsys):
        assert main(["stream", "--scale", "tiny", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_reused_wal_path_is_a_usage_error(self, capsys, tmp_path):
        """Re-streaming onto a log that already holds events must be a
        friendly exit-2 error, not a PersistenceError traceback."""
        argv = [
            "stream",
            "--scale",
            "tiny",
            "--batch-size",
            "50",
            "--wal",
            str(tmp_path / "wal.jsonl"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "already holds events" in capsys.readouterr().err


def shards_row(out: str) -> str:
    """The value of the ``shards`` row of a rendered statistics table."""
    line = next(
        line for line in out.splitlines() if line.strip().startswith("shards")
    )
    return line.split()[-1]


class TestRecoverCommand:
    def test_recover_round_trip(self, capsys, tmp_path):
        """stream --wal then recover --verify: exact parity, exit 0."""
        assert (
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--batch-size",
                    "50",
                    "--wal",
                    str(tmp_path / "wal.jsonl"),
                    "--checkpoint-every",
                    "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["recover", str(tmp_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        assert "wal events replayed" in out
        assert shards_row(out) == "1"
        parity_line = next(
            line for line in out.splitlines() if "parity" in line
        )
        assert "True" in parity_line

    def test_recover_requires_directory(self, capsys):
        assert main(["recover"]) == 2
        assert "state directory" in capsys.readouterr().err

    def test_recover_empty_directory_is_a_usage_error(self, capsys, tmp_path):
        """An empty state dir exits 2 with one actionable line — no
        CheckpointError traceback."""
        assert main(["recover", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no recoverable streaming state" in err
        assert "repro-kiff stream" in err

    def test_recover_missing_directory_is_a_usage_error(
        self, capsys, tmp_path
    ):
        assert main(["recover", str(tmp_path / "nowhere")]) == 2
        assert "missing" in capsys.readouterr().err

    def test_recover_unrecognized_files_not_called_empty(
        self, capsys, tmp_path
    ):
        """A dir holding only unusable leftovers (rotated logs, typos)
        must not be reported as empty — the files exist, the naming is
        the problem."""
        (tmp_path / "wal.jsonl.superseded-12").write_text("{}")
        (tmp_path / "wal.json").write_text("{}")
        assert main(["recover", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no recoverable streaming state" in err
        assert "empty" not in err

    def test_recover_refuses_the_flat_archive_format(self, capsys, tmp_path):
        """A wal.jsonl + checkpoint-<seq>.npz directory (the flat format
        older versions wrote) has no reader: exit 2, never an empty
        restore, and nothing is written into it."""
        (tmp_path / "wal.jsonl").write_text('{"type":"header","version":1}\n')
        (tmp_path / "checkpoint-000000000000.npz").write_bytes(b"PK")
        assert main(["recover", str(tmp_path)]) == 2
        assert "no recoverable streaming state" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-000000000000.npz",
            "wal.jsonl",
        ]


class TestRebalanceCommand:
    def test_one_shard_stream_rebalances_to_two(self, capsys, tmp_path):
        """The flat index's state directory is the one-shard partitioned
        layout: rebalance re-shards it in place with no adoption step."""
        argv = ["stream", "--scale", "tiny", "--batch-size", "50"]
        assert main([*argv, "--wal", str(tmp_path)]) == 0
        capsys.readouterr()
        rebalance = ["rebalance", str(tmp_path), "--shards", "2", "--verify"]
        assert main(rebalance) == 0
        out = capsys.readouterr().out
        assert "shards before" in out
        parity_line = next(
            line for line in out.splitlines() if "parity" in line
        )
        assert "True" in parity_line
        assert (tmp_path / "wal-1.jsonl").exists()
        assert main(["recover", str(tmp_path), "--verify"]) == 0
        assert shards_row(capsys.readouterr().out) == "2"

    def test_rebalance_empty_directory_is_a_usage_error(
        self, capsys, tmp_path
    ):
        assert main(["rebalance", str(tmp_path), "--shards", "2"]) == 2
        assert "no recoverable streaming state" in capsys.readouterr().err


class TestShardedStream:
    def test_sharded_stream_reports_parity(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--batch-size",
                    "50",
                    "--shards",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "DynamicKnnIndex" in out  # one class at every shard count
        shards_line = next(
            line for line in out.splitlines() if "shards" in line
        )
        assert shards_line.strip().endswith("2")
        parity_line = next(
            line for line in out.splitlines() if "parity" in line
        )
        assert "True" in parity_line

    def test_sharded_stream_recover_round_trip(self, capsys, tmp_path):
        """stream --shards --wal writes the partitioned layout, and
        recover --verify restores it with exact parity."""
        assert (
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--batch-size",
                    "50",
                    "--shards",
                    "2",
                    "--wal",
                    str(tmp_path),
                    "--checkpoint-every",
                    "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (tmp_path / "wal-0.jsonl").exists()
        assert (tmp_path / "wal-1.jsonl").exists()
        assert list(tmp_path.glob("checkpoint-*.shards"))
        assert main(["recover", str(tmp_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ShardedKnnIndex" in out
        assert shards_row(out) == "2"
        parity_line = next(
            line for line in out.splitlines() if "parity" in line
        )
        assert "True" in parity_line

    def test_reused_sharded_state_is_a_usage_error(self, capsys, tmp_path):
        argv = [
            "stream",
            "--scale",
            "tiny",
            "--batch-size",
            "50",
            "--shards",
            "2",
            "--wal",
            str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "already holds events" in capsys.readouterr().err


def _orphan_shard_segments() -> list[str]:
    """Shard shared-memory segments still linked in /dev/shm."""
    shm = Path("/dev/shm")
    if not shm.is_dir():  # non-Linux: nothing to observe
        return []
    return [entry.name for entry in shm.glob("*repro-shard*")]


class TestStreamCleanup:
    """A mid-stream failure must not leak the worker pool or /dev/shm.

    The historical bug: ``repro stream --executor processes`` built the
    sharded index, and an exception raised while streaming escaped
    without ``close()`` — orphaning one OS worker per shard and their
    shared-memory arena until interpreter exit (or forever, for the
    segments, on an unclean exit)."""

    @pytest.mark.parametrize(
        "error_type", [RuntimeError, KeyboardInterrupt]
    )
    def test_mid_stream_failure_releases_pool_and_shm(
        self, monkeypatch, error_type
    ):
        from repro.streaming import ratings_batch
        from tests.streaming.test_process_executor import wait_dead

        seen = {}

        def exploding_replay(index, users, items, ratings, **kwargs):
            # Stream one real batch so the process pool and shared
            # memory arena actually spawn, then die mid-stream.
            index.apply(ratings_batch(users[:20], items[:20], ratings[:20]))
            index.refresh()
            seen["pids"] = list(index._procpool.pids)
            seen["arena"] = index._arena.name
            raise error_type("mid-stream failure")

        monkeypatch.setattr(
            "repro.streaming.replay_stream", exploding_replay
        )
        with pytest.raises(error_type, match="mid-stream failure"):
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--shards",
                    "2",
                    "--executor",
                    "processes",
                ]
            )
        assert seen["pids"], "the worker pool never spawned"
        for pid in seen["pids"]:
            wait_dead(pid)
        assert not _orphan_shard_segments()

    def test_clean_stream_leaves_no_segments(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--scale",
                    "tiny",
                    "--batch-size",
                    "50",
                    "--shards",
                    "2",
                    "--executor",
                    "processes",
                ]
            )
            == 0
        )
        assert not _orphan_shard_segments()


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.duration is None
        assert args.serve_events == 0

    def test_serve_shards_validated(self, capsys):
        assert main(["serve", "--scale", "tiny", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_smoke_over_tcp(self):
        """End to end in a subprocess: bind an ephemeral port, answer a
        mixed query batch while the writer streams events, exit 0 and
        close the index on SIGTERM."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--scale",
                "tiny",
                "--port",
                "0",
                "--duration",
                "60",
                "--serve-events",
                "24",
                "--batch-size",
                "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"on ([\d.]+):(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with socket.create_connection((host, port), timeout=10) as conn:
                conn.sendall(
                    b'{"op": "neighbors", "user": 0}\n'
                    b'{"op": "recommend", "user": 1}\n'
                    b'{"op": "stats"}\n'
                    b'{"op": "bogus"}\n'
                )
                with conn.makefile("r") as stream:
                    replies = [json.loads(stream.readline()) for _ in range(4)]
            assert [r["ok"] for r in replies] == [True, True, True, False]
            assert replies[0]["version"] == replies[1]["version"]
            assert "unknown op" in replies[3]["error"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert "served" in tail
        assert "index closed" in tail


class TestUtilityCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "wikipedia" in out
        assert "ml-5" in out

    def test_datasets_command_saves_edge_lists(self, capsys, tmp_path):
        assert (
            main(["datasets", "--scale", "tiny", "--save-dir", str(tmp_path)])
            == 0
        )
        assert (tmp_path / "wikipedia.edges").exists()
        assert (tmp_path / "wikipedia.meta.json").exists()
        # Saved datasets reload identically.
        from repro.datasets import load_dataset, load_dataset_dir

        reloaded = load_dataset_dir(tmp_path, "wikipedia")
        assert reloaded == load_dataset("wikipedia", scale="tiny")

    def test_graph_stats_command(self, capsys):
        argv = ["graph-stats", "--scale", "tiny", "--dataset", "arxiv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "reciprocity" in out
        assert "scan rate" in out

    def test_graph_stats_custom_k(self, capsys):
        assert (
            main(
                [
                    "graph-stats",
                    "--scale",
                    "tiny",
                    "--dataset",
                    "wikipedia",
                    "--k",
                    "5",
                ]
            )
            == 0
        )
        assert "k=5" in capsys.readouterr().out
