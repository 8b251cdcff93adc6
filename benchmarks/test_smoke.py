"""Smoke test of the benchmark itself, on tiny inputs.

    python -m pytest benchmarks/test_smoke.py -q

Checks that every metric BENCHMARK.json declares is printed with its unit,
that a traced run prints every per-layer metric, that a tampered golden
digest fails the run, and that the benchmark refuses to run without the
library's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "sweep")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"][1:] == ["benchmarks/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_benchmark(root):
    """BENCHMARK.json and benchmarks/ under ``root``, as in a bare checkout."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, root / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_golden_digest_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
    golden_path = tmp_path / "benchmarks" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    digest = golden["serve@tiny"]["queries"]
    golden["serve@tiny"]["queries"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    golden_path.write_text(json.dumps(golden), encoding="utf-8")

    proc = run_bench("serve", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] >= 1
    error_rate = next(line for line in proc.stdout.splitlines() if "error_rate" in line)
    assert float(error_rate.split()[1]) > 0
    assert "queries digest" in proc.stderr


def test_refuses_to_run_without_the_library_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("serve", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
