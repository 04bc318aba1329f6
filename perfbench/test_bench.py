"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_bench.py
    python3 -m pytest -q perfbench/test_bench.py -k oracle   # one workload

The traced-repeat tests run the benchmark twice per workload and take
about five minutes for all four.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEED_7 = {
    "exact-dist": [
        "dist --n 86 --k 3 --lmax 57", "moments --spec 3:4 --n 86",
        "dist --n 92 --k 3 --lmax 61", "moments --spec 3:4 --n 92",
        "dist --n 99 --k 3 --lmax 66", "moments --spec 3:4 --n 99"],
    "tail-fit": [
        "asymp --table 2 --kmax 5 --n 1266", "asymp --table 2 --kmax 5 --n 1634",
        "asymp --table 2 --kmax 5 --n 1946"],
    "oracle-verify": [
        "verify --n-max 9", "oracle --n 5 --d 2 --track 2,3 --range"],
    "float-series": [
        "asymp --table 1", "dist --n 3148 --k 2 --lmax 20",
        "dist --n 3752 --k 2 --lmax 20", "dist --n 3945 --k 2 --lmax 20",
        "dist --n 1043 --k 4 --lmax 4 --backend float",
        "range-dist --n 3148", "range-dist --n 3752", "range-dist --n 3945",
        "asymp --table 3 --kmax 8", "first-moment --d 3 --k 2 --n 1000"],
}

LARGEST_SELF = {"exact-dist": "pseries.mul_exact", "tail-fit": "walks.dp_float",
                "oracle-verify": "walks.enum"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_gives_the_same_argv_on_every_commit(workload):
    got = [" ".join(q["argv"]) for q in workloads.generate(workload, 7)]
    assert got == GOLDEN_SEED_7[workload]


@pytest.mark.parametrize("lo,hi", [(80, 100), (1000, 2000), (3000, 4000)])
def test_sizes_cover_the_range(lo, hi):
    drawn = [n for seed in range(500)
             for n in workloads.sizes(random.Random(seed), lo, hi)]
    assert lo <= min(drawn) and max(drawn) <= hi
    assert min(drawn) < lo + (hi - lo) / 20 and max(drawn) > hi - (hi - lo) / 20


def _traced_run(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=400)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed{seed}-trace1.json").read_text())
    return result, detail


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, detail = _traced_run(workload, 5)
    second, _ = _traced_run(workload, 5)
    assert set(first["metrics"]) == set(layertrace.METRICS) | {
        "trace.spans", "trace.overhead_frac"}
    counted = layertrace.EXACT_COUNTS + [
        m for m in layertrace.METRICS if m.endswith(".calls")] + ["trace.spans"]
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload in LARGEST_SELF:
        assert detail["largest_self"] == LARGEST_SELF[workload]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "float-series", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
