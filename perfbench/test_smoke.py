"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that a corrupted reference digest is reported as a failed operation, and
that the benchmark refuses to run without the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    r = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                        "--seed", "7", "--seconds", "1", "--trace", str(trace),
                        "--scale", "tiny", *extra],
                       cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return r.returncode, last


def assert_metrics(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_plain_run_emits_every_end_to_end_metric(workload):
    code, result = run(workload, 0)
    assert code == 0
    assert_metrics(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    code, result = run("cli", 1)
    assert code == 0
    assert_metrics(result, "per_layer")
    assert result["correct"]


@pytest.mark.parametrize("workload, path", [
    ("finite", ("finite", "densify")),
    ("elements", ("elements", "placement")),
    ("cli", ("cli", "calls", "validate s3.json")),
])
def test_corrupted_reference_digest_is_a_failed_operation(workload, path):
    ref = json.loads((BENCH / "reference.json").read_text())
    node = ref["tiny"]
    for key in path[:-1]:
        node = node[key]
    if isinstance(node[path[-1]], list):
        node[path[-1]] = [node[path[-1]][0], "0" * 64]
    else:
        node[path[-1]] = "0" * 64
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=BENCH / "out") as f:
        json.dump(ref, f)
        f.flush()
        code, result = run(workload, 0, "--reference", f.name)
    assert code != 0
    assert result is not None and not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_package():
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        code, result = run("finite", 0, cwd=bare)
        assert code != 0 and result is None
    finally:
        shutil.rmtree(bare)
