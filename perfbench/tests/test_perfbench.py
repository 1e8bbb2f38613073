"""Tests of the benchmark itself, at a tiny input size.

Every workload runs once untraced and once traced through the real command
line; the printed metrics must match ``BENCHMARK.json`` name for name and
unit for unit.  A corrupted answer, injected into a workload's check only,
must make the run exit non-zero, and so must a checkout without ``src/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench_run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_command(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        completed = run_command(workload, trace)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace:
            metrics = result["metrics"]
            assert metrics["trace.layer_sum_ms"]["value"] == pytest.approx(
                metrics["trace.query_ms"]["value"], rel=1e-9
            )


def _drop_a_row(relation):
    """A copy of ``relation`` without its first row."""
    corrupted = relation.copy()
    del corrupted._rows[next(iter(corrupted._rows))]
    return corrupted


class _CorruptView:
    def __init__(self, view):
        self._view = view

    def to_rows(self):
        return _drop_a_row(self._view.to_rows())


def _corrupt_state(workload: str, state) -> None:
    if workload == "multiwindow":
        state["warm"] = _drop_a_row(state["warm"])
    elif workload == "sql-rank":
        state["warm"]["leaderboard"] = _drop_a_row(state["warm"]["leaderboard"])
    else:
        server = state["server"]
        cached_view = server.cached_view
        server.cached_view = lambda name, params=(): (
            None if cached_view(name, params) is None
            else _CorruptView(cached_view(name, params))
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_answer_fails_the_run(workload, monkeypatch, capsys):
    from perfbench.workloads import WORKLOADS as classes

    cls = classes[workload]
    original = cls.check

    def corrupted_check(self, state, recorder):
        _corrupt_state(workload, state)
        return original(self, state, recorder)

    monkeypatch.setattr(cls, "check", corrupted_check)
    code = bench_run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.3", "--size", "tiny"]
    )
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_a_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_command("multiwindow", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench_run.tail([float(i) for i in range(1, 1001)]) == ("p99.00 of 1000", 990.0)
    assert bench_run.tail([float(i) for i in range(40, 0, -1)]) == ("p75.00 of 40", 30.0)
    assert bench_run.tail([float(i) for i in range(19)]) == ("max of 19", 18.0)


def _touch_megabytes(count: int) -> None:
    block = bytearray(count * 1024 * 1024)
    for i in range(0, len(block), 4096):
        block[i] = 1


def test_peak_rss_counts_forked_workers():
    import multiprocessing
    import resource

    child = multiprocessing.get_context("fork").Process(target=_touch_megabytes, args=(96,))
    child.start()
    child.join()
    assert child.exitcode == 0
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    assert child_mb >= 96
    assert bench_run.peak_rss_mb() >= child_mb
