"""Smoke test of the benchmark itself: every workload briefly, in both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must exit 0, pass every output check, and report exactly the
metric names and units BENCHMARK.json lists for its mode.  A copy of the
benchmark without the redlab sources must exit non-zero without a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
