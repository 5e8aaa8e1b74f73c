"""Smoke self-test of the benchmark at tiny size; it sets no wall-clock gate.

Run from the repository root::

    python -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload: str, trace: int) -> None:
    proc = _bench(
        REPO, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
        "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


def test_w204_is_expected_from_the_run_date(tmp_path: Path) -> None:
    sys.path.insert(0, str(REPO / "bench"))
    import corpus
    import oracle

    rel = "fixtures/production-machine.dsx"  # "validUntil": "2026-12-31"
    item = corpus.Input(rel, (REPO / rel).read_text(encoding="utf-8"))
    inv = corpus.Invocation("check", ("check", "--report", "json", rel), (item,), 0)
    w204 = {
        "code": "W204", "column": 7, "file": rel, "length": 12, "line": 35,
        "message": "contract expired on 2026-12-31", "severity": "warning",
    }

    def judge(diagnostics: list, today: date):
        doc = {"diagnostics": diagnostics, "errors": [], "written": []}
        stdout = json.dumps(doc, indent=2, sort_keys=True).encode()
        return oracle.judge(inv, 0, stdout, b"", tmp_path, today)

    before, after = judge([], date(2026, 12, 31)), judge([w204], date(2027, 1, 1))
    assert before.problems == [] and after.problems == []
    assert before.digest == after.digest
    assert judge([], date(2027, 1, 1)).problems
    assert judge([w204], date(2026, 12, 31)).problems


def test_bare_directory_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "fleet-check", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
