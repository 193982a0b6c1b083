"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from rhorace import is_probable_prime, pipeline, trial_divide  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic_per_seed(name):
    first = [workloads.make_input(name, 11, i) for i in range(6)]
    assert first == [workloads.make_input(name, 11, i) for i in range(6)]
    assert first != [workloads.make_input(name, 12, i) for i in range(6)]
    for inp in first:
        assert math.prod(inp.planted) == inp.n
        assert all(is_probable_prime(p) for p in inp.planted)


def test_semiprime_race_has_no_factor_under_the_prepass():
    table = pipeline.default_table()
    for i in range(40):
        inp = workloads.make_input("semiprime-race", 3, i)
        assert len(inp.planted) == 2
        assert min(inp.planted) > table.limit
        assert trial_divide(inp.n, table) == ({}, inp.n)


def test_gen_multi_planted_prime_exceeds_the_prepass():
    limit = pipeline.default_table().limit
    assert limit == workloads.PREPASS_LIMIT
    for i in range(20):
        inp = workloads.make_input("gen-multi", 5, i)
        assert len(str(inp.n)) == 40
        assert len(inp.planted) == 4
        assert min(inp.planted) > limit
        assert len(str(min(inp.planted))) == 7


def test_smooth_prepass_mixes_prime_and_semiprime_cofactors():
    for i in range(10):
        inp = workloads.make_input("smooth-prepass", 2, i)
        large = [p for p in inp.planted if p > workloads.PREPASS_LIMIT]
        assert [len(str(p)) for p in large] == ([20] if i % 3 else [7, 13])
        assert 2 <= len(inp.planted) - len(large) <= 4


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.MAKERS) == sorted(NAMES)


def test_self_times_sum_to_the_root():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 4.0, "end": 9.0},
        {"id": 3, "parent": 2, "start": 5.0, "end": 6.0},
    ]
    selfs = run.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0


def run_bench(cwd, *args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out.returncode, out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_pass_has_no_failures(name, trace):
    rc, stdout = run_bench(
        ROOT, "--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)
    )
    result = json.loads(stdout.splitlines()[-1])
    assert rc == 0, stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if trace == 0:
        assert result["metrics"]["completed_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    rc, stdout = run_bench(
        tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert rc != 0
    assert stdout == ""


def test_a_pass_over_its_ceiling_is_killed(monkeypatch):
    monkeypatch.setattr(run, "PASS_GRACE_S", -4.0)
    args = argparse.Namespace(workload="semiprime-race", seed=1, seconds=5.0, trace=0)
    res = run.run_pass(args)
    assert res["timed_out"]
    assert "end" not in res
    with pytest.raises(ProcessLookupError):
        os.killpg(res["pgid"], 0)
