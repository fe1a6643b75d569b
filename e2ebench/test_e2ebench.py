"""Tests of the end-to-end benchmark itself.

Every workload runs at tiny input sizes through the same code path as a
measured run (``run.run``), in both modes and on two seeds.  Run with::

    PYTHONPATH=src python -m pytest e2ebench -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2ebench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("run")
bench.import_program()
import e2e_trace  # noqa: E402 - importable once import_program put it on the path

RUNS = {}


def _run(workload: str, seed: int, trace: int, tmp_path_factory) -> dict:
    key = (workload, seed, trace)
    if key not in RUNS:
        argv = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
        args = bench.parse_args(argv + ["--seconds", "0", "--tiny"])
        RUNS[key] = bench.run(args, tmp_path_factory.mktemp(workload), setup_samples=1)
    return RUNS[key]


def _originals():
    return [vars(owner)[attribute] for _, owner, attribute, _ in e2e_trace.targets()]


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_untraced_run_verifies_and_prints_every_end_to_end_metric(workload, tmp_path_factory):
    result = _run(workload, 1, 0, tmp_path_factory)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = _declared("end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric_and_unwraps(workload, tmp_path_factory):
    before = _originals()
    result = _run(workload, 1, 1, tmp_path_factory)["result"]
    after = _originals()
    assert all(old is new for old, new in zip(before, after))
    assert result["correct"] and result["failed"] == 0
    declared = _declared("per_layer")
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name]
    self_ms = sum(metrics[f"{layer}.self_ms"]["value"] for layer in e2e_trace.LAYERS)
    total = self_ms + metrics["trace.unattributed_ms"]["value"]
    assert total == pytest.approx(metrics["trace.op_ms"]["value"], rel=1e-9)
    assert metrics["trace.op_ms"]["value"] > 0


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_counts_repeat_exactly_for_a_seed(workload, tmp_path_factory):
    for seed in (1, 2):
        untraced = _run(workload, seed, 0, tmp_path_factory)["report"]["counts"]
        traced = _run(workload, seed, 1, tmp_path_factory)["report"]["counts"]
        assert untraced and untraced == traced


def test_header_records_the_decision(tmp_path_factory):
    header = _run("edge-regular", 1, 0, tmp_path_factory)["report"]["header"]
    assert set(header["decision"]) >= {"algorithm", "engine", "quality", "route"}
    assert header["nproc"] >= 1 and header["numpy"] and header["python"]
    assert "kernel_backend" in header and header["kernel_threads"] >= 1


def test_wrappers_are_removed_when_an_op_raises():
    before = _originals()
    tracer = e2e_trace.Tracer()
    with pytest.raises(RuntimeError):
        with e2e_trace.installed(tracer), tracer.op():
            assert any(old is not new for old, new in zip(before, _originals()))
            raise RuntimeError("op failed")
    assert all(old is new for old, new in zip(before, _originals()))


def test_command_line_prints_one_result_line():
    command = [sys.executable, str(HERE / "run.py"), "--workload", "churn", "--seed", "3"]
    command += ["--seconds", "0", "--trace", "0", "--tiny"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_line_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", "churn", "--seed", "1"]
    command += ["--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert completed.stdout == ""
