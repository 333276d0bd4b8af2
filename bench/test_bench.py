"""Tests of the benchmark itself: python3 -m pytest bench -q

They check that the default batteries are the acceptance battery's, that
every workload runs untraced and traced at smoke size on non-default
seeds and prints the metrics BENCHMARK.json names, that traced counts
repeat exactly, and that the benchmark refuses to run without sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import riccatilab as rl  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402

WORKLOADS = ("sweep_mixed", "oracle_battery", "cli_large")
NON_DEFAULT = [
    "--interior-seed", "5",
    "--subordinated-seed", "6",
    "--overlapping-seed", "8",
    "--instance-seed", "12",
]


def _conftest():
    spec = importlib.util.spec_from_file_location("acceptance_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_default_batteries_are_the_acceptance_batteries():
    conftest = _conftest()
    assert wl.interior_specs(500, wl.DEFAULT_MASTERS["interior"]) == conftest.interior_specs(
        500, conftest.MASTER_INTERIOR
    )
    assert wl.subordinated_specs(200, wl.DEFAULT_MASTERS["subordinated"]) == conftest.subordinated_specs(
        200, conftest.MASTER_SUBORDINATED
    )
    fixture = conftest.overlapping100._get_wrapped_function()
    usable = [item[0] for item in fixture().items]
    # the workload keeps the first 100 draws unfiltered; those the spectral
    # route can solve are exactly the fixture's first usable instances
    solvable = []
    for spec in wl.overlapping_specs(100, wl.DEFAULT_MASTERS["overlapping"]):
        p = rl.generate(spec)
        try:
            rl.solve_spectral(p, rl.select_gap(p, (spec.gap[0] + spec.gap[1]) / 2))
        except rl.RiccatiLabError:
            continue
        solvable.append(spec)
    assert 0 < len(solvable) < 100
    assert solvable == usable[: len(solvable)]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_at_non_default_seeds(workload, trace):
    result = _result(_run(workload, 7, trace, "--smoke", *NON_DEFAULT))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    named = _contract()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for seed in (1, 2):
        metrics = _result(_run(workload, seed, 1, "--smoke"))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("sweep_mixed", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    # outer [0, 10] holds kernel.eigh [1, 4] and linalg.operator_norm [5, 6],
    # which holds kernel.norm2 [5.5, 5.75]
    spans = [
        ["linalg.hermitian_eig", 0.0, 10.0, -1, 0, None, None],
        ["kernel.eigh", 1.0, 4.0, 0, 0, None, None],
        ["linalg.operator_norm", 5.0, 6.0, 0, 0, None, None],
        ["kernel.norm2", 5.5, 5.75, 2, 0, None, None],
    ]
    metrics = per_layer_metrics(spans, Counter())
    assert metrics["linalg.hermitian_eig.self_s"] == 6.0
    assert metrics["linalg.operator_norm.self_s"] == 0.75
    assert metrics["linalg.self_s"] == 6.75
    assert metrics["kernel.self_s"] == 3.25
    assert metrics["kernel.eigh.calls"] == 1 and metrics["kernel.norm2.calls"] == 1
