"""Smoke test of the benchmark: every workload at its smallest size.

Run from the repository root: python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from tracing import Tracer, self_times_ns  # noqa: E402


def _run(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_and_matching_verdicts(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    digest_line = next(line for line in lines if line.startswith("verdict digest"))
    assert digest_line.endswith(" match"), digest_line

    # Only the known crash of `invariants --format machine` may fail.
    failed = [line for line in lines if line.startswith("failed job ")]
    assert all(line.startswith("failed job invariants ") and " machine:" in line
               for line in failed), failed
    assert result["failed"] == sum(int(line.rsplit(" ", 1)[1][:-1]) for line in failed)
    assert (result["failed"] > 0) == (workload == "cli-cold")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "suite-verify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer = tracer.begin("job", "harness")
    inner = tracer.begin("generator.generate", "generator")
    leaf = tracer.begin("bowdata.validate_relations", "bowdata")
    tracer.end(leaf)
    tracer.end(inner)
    tracer.end(outer)
    for index, (start, end) in enumerate([(0, 100), (10, 60), (20, 50)]):
        tracer.spans[index][2:4] = [start, end]
    assert self_times_ns(tracer.spans) == [50, 20, 30]
