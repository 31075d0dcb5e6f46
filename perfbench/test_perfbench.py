"""Self-test of the benchmark: names, units and exactly repeating counts.

Run from the root of a checkout with ``python -m pytest perfbench``.  It
starts the benchmark as a subprocess, as a user would; each workload runs
once untraced and twice traced, about 90 s in all on a 2-core host.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 11

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that do not depend on timing, so they must repeat exactly.
EXACT = ("gp.reorder_symbolic.rewrites_per_op", "gp.reorder_symbolic.passes_max")


def bench(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_names_and_units(metrics, spec):
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    metrics = bench(workload, 0, 2)
    assert_names_and_units(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = bench(workload, 1, 1)
    second = bench(workload, 1, 1)
    assert_names_and_units(first, SPEC["per_layer"])
    counts = [name for name in first if name.endswith(".calls_per_op") or name in EXACT]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_fails_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(
                open(os.path.join(ROOT, "perfbench", name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
