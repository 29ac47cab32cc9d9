"""The benchmark's own test.

Runs every workload at its smallest size (``--small``) with two seeds,
untraced and traced, the way the benchmark is driven: as a separate
process from the repository root.  Run it with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, seed, trace, section):
    done = _run(ROOT, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # With --trace 1 this also covers "the traced run changes no answer".
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], float), name


def test_names_use_only_safe_characters_and_are_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert [n for n in names if not NAME.match(n)] == []
    assert len(names) == len(set(names))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "online", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
