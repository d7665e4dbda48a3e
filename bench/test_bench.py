"""Tests of the benchmark itself, on the smoke sizes of every workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert {m["unit"] for m in SPEC["per_layer"]} >= {"s", "count"}


def test_nested_spans_record_their_parent():
    tracer = Tracer()
    outer = tracer.begin("a.outer")
    tracer.end(tracer.begin("b.inner"))
    tracer.end(outer)
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert tracer.spans[0][1] <= tracer.spans[1][1] <= tracer.spans[1][2] <= tracer.spans[0][2]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [["a.outer", 0.0, 3.0, -1], ["b.inner", 1.0, 2.5, 0]]
    summary = tracer.summary()
    assert summary["a.outer"] == {"calls": 1, "total_s": 3.0, "self_s": 1.5}
    assert summary["b.inner"]["self_s"] == 1.5


def test_patch_records_spans_and_restores():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    tracer = Tracer()
    original = Owner.work
    tracer.patch(Owner, "work", "x.work", lambda c, a, k, r: c.update({"x.calls": 1}))
    assert Owner.work(1) == 2 and Owner.work(2) == 3
    assert tracer.summary()["x.work"]["calls"] == 2 and tracer.counters["x.calls"] == 2
    tracer.restore()
    assert Owner.work is original


def test_layer_metrics_are_complete_without_spans():
    metrics = layer_metrics({}, collections.Counter(), 0.1, 0.0)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_configs_follow_the_seed(name):
    assert configs(name, 3, False) == configs(name, 3, False)
    assert configs(name, 3, False) != configs(name, 4, False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_is_correct(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "csv_pipeline":
            assert values["solver.sa_calls"] == 0 and values["dataset.csv_bytes"] > 0
        if name == "scan_short":
            assert values["cli.scan_points"] == 8 and values["cli.scan_infeasible"] == 2
            assert values["evaluate.uncertainty_runs"] == 12


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "train_sa", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
