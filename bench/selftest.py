"""Tests of the benchmark itself, at tiny size.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the package's own test suite does not
collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload, trace, cwd=ROOT, script=HERE / "bench.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload at one seed."""
    out = {}
    for w in bench.WORKLOADS:
        runs = []
        for _ in range(2):
            proc = run_bench(w, 1)
            assert proc.returncode == 0, proc.stderr
            runs.append(result_of(proc)[1])
        out[w] = runs
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines, result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert any(line.startswith("failed_share 0 share") for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    for key in ("commit", "nproc", "python", "numpy", "seed", "input"):
        assert meta[key] is not None
    assert meta["input"]["grid_len"] > 0


def test_per_layer_metrics_printed_with_units(traced):
    for results in traced.values():
        for m in SPEC["per_layer"]:
            assert results[0]["metrics"][m["name"]]["unit"] == m["unit"]


def test_call_counts_repeat_exactly(traced):
    for results in traced.values():
        first, second = (
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls_per_step")}
            for r in results
        )
        assert first == second


def test_layer_contrast(traced):
    def calls(workload, name):
        return traced[workload][0]["metrics"][f"{name}.calls_per_step"]["value"]

    assert calls("hill9-bernoulli", "expfam.Bernoulli.kl_upper_inverse") > 0
    for w in ("grid36-exponential", "traced-gaussian", "hill9-pool2"):
        for fam in ("Bernoulli", "Gaussian", "Exponential"):
            assert calls(w, f"expfam.{fam}.kl_upper_inverse") == 0
    for w in bench.WORKLOADS:
        for name in ("invariants.check_step", "runner.write_trace"):
            assert (calls(w, name) > 0) == (w == "traced-gaussian"), (w, name)
        assert "trace_overhead_share" in traced[w][0]["metrics"]


def test_tampered_digest_fails(tmp_path, monkeypatch, capsys):
    digests = json.loads(bench.DIGESTS.read_text())
    entry = digests["tiny"]["hill9-bernoulli"]
    entry["regret.csv"] = entry["regret.csv"][::-1]
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(digests))
    monkeypatch.setattr(bench, "DIGESTS", tampered)
    rc = bench.main(["--workload", "hill9-bernoulli", "--seed", str(SEED), "--seconds", "1",
                     "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] == 1


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("hill9-bernoulli", 0, cwd=tmp_path, script=tmp_path / "bench" / "bench.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
