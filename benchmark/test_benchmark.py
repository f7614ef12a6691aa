"""Tests of the benchmark itself, on the tiny ``--smoke`` corpora.

    python -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "general-rank", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert line["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["gram.searches"] > 0 and metrics["linalg.lapack_eig_calls"] > 0
    assert metrics["trace.coverage"] > 0.9


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "xsym-check", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    sys.path.insert(0, str(HERE))
    from run import tail

    value, pct = tail([float(v) for v in range(40)])
    assert value == 29.0 and pct == 75.0
    assert tail([1.0, 2.0]) == (2.0, 100.0)


def test_oracle_rejects_a_wrong_decomposition(tmp_path, monkeypatch):
    sys.path.insert(0, str(HERE))
    from biquad import forms
    from oracle import check_decomposition
    from workloads import build_corpus

    monkeypatch.chdir(tmp_path)
    item = next(i for i in build_corpus("xsym-decompose", 5, ".", smoke=True) if i.out)
    m, n = item.xsym[0], len(item.xsym[1])
    weights = np.asarray(item.xsym[1])
    # Right factor count, wrong polynomial.
    factors = tuple(np.outer(np.eye(m)[p % m], np.sqrt(weights)) for p in range(item.factor_count))
    forms.save_decomposition(forms.SOSDecomposition(m, n, factors), item.out)
    assert "coefficient identity" in check_decomposition(item, forms)
    forms.save_decomposition(forms.SOSDecomposition(m, n, ()), item.out)
    assert "factors" in check_decomposition(item, forms)
