"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs at smoke-test size, untraced and traced; the output
schema, the run record, the absence of failed ops and exact repetition of
the counted per-layer figures are checked.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 5
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT, "results", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    return result, record


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[(workload, trace)] = tiny_run(workload, trace)
        return cache[(workload, trace)]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke(runs, workload, trace):
    result, record = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    for key in ("python", "nproc", "platform", "git_commit", "seed", "metrics"):
        assert record[key] is not None
    if os.path.exists(os.path.join(ROOT, ".git")):
        assert len(record["git_commit"]) == 40
    assert record["seed"] == SEED
    assert record["metrics"] == result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, _ = runs(workload, 1)
    second, _ = tiny_run(workload, 1)
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counted} == \
        {n: second["metrics"][n]["value"] for n in counted}


def test_git_commit_reads_packed_refs(tmp_path, monkeypatch):
    sha = "0123456789abcdef0123456789abcdef01234567"
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{sha} refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.git_commit() == sha
    monkeypatch.setattr(run, "ROOT", str(tmp_path / "elsewhere"))
    assert run.git_commit() == "unknown"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_reduces_its_matrix():
    import probe

    m = probe.eliminate()
    rows = len(probe.MATRIX)
    assert [row[:rows] for row in m] == [[int(i == j) for j in range(rows)] for i in range(rows)]
    assert probe.timed() > 0
