"""Benchmark harness tests: input construction, suite runs, summaries."""

import importlib.util
import math
import os
import py_compile
import subprocess
import sys

import pytest

from rhorace import bench
from rhorace.bench import (
    BenchRecord,
    BenchSuite,
    BenchVerificationError,
    SummaryRow,
    gen_input,
    run_suite,
    summarize,
    write_csv,
    write_plot_script,
    _gen_parts,
)
from rhorace.numeric import is_probable_prime
from rhorace.pipeline import PipelineStats, factorize
from rhorace.race import RaceConfig
from rhorace.sieve import DEFAULT_LIMIT

from reference_times import reference_records


def test_gen_input_structure_small():
    n = gen_input(4, 2, seed=3)
    assert len(str(n)) == 4
    parts = _gen_parts(4, 2, seed=3)
    assert len(str(parts[0])) == 2
    assert all(is_probable_prime(p) for p in parts)
    prod = 1
    for p in parts:
        prod *= p
    assert prod == n


def test_gen_input_deterministic():
    assert gen_input(30, 8, seed=9) == gen_input(30, 8, seed=9)
    assert gen_input(30, 8, seed=9) != gen_input(30, 8, seed=10)
    assert gen_input(30, 8, seed=9) != gen_input(30, 6, seed=9)


@pytest.mark.parametrize("digits,small", [(12, 5), (20, 6), (30, 8), (40, 8), (50, 10)])
def test_gen_input_exact_digits_and_plant(digits, small):
    for seed in (0, 1, 2):
        parts = _gen_parts(digits, small, seed)
        n = gen_input(digits, small, seed)
        assert len(str(n)) == digits
        assert len(str(parts[0])) == small
        assert all(is_probable_prime(p) for p in parts)
        assert len(parts) >= 2  # always composite


def test_gen_input_fifty_digit_round_trip(table_1e6):
    # The 50-digit input must really contain a 10-digit prime; factorize it
    # and look.  This is the slowest single check in the module tests.
    n = gen_input(50, 10, seed=1)
    result = factorize(n, RaceConfig(workers=1, seed=0), table_1e6)
    assert any(len(str(p)) == 10 for p in result.factors)
    assert result.product() == n


def test_gen_input_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_input(3, 2)
    with pytest.raises(ValueError):
        gen_input(20, 1)
    with pytest.raises(ValueError):
        gen_input(20, 11)  # more than digits // 2


def test_suite_inputs_seeded():
    suite = BenchSuite([12], 3, [1], seed=8, small_factor_digits=5)
    first = suite.inputs()[12]
    assert suite.inputs()[12] == first
    assert len(set(first)) == 3  # derived seeds differ per index
    twin = BenchSuite([12], 3, [1], seed=8, small_factor_digits=5)
    assert twin.inputs() == suite.inputs()
    # None picks the planted size per class; 0 goes to gen_input, which refuses it.
    with pytest.raises(ValueError):
        BenchSuite([12], 1, small_factor_digits=0).inputs()


def test_desk_classes_plant_primes_above_the_prepass():
    # A planted prime under the pre-pass limit is stripped by trial division,
    # and the class then never races.
    inputs = BenchSuite(bench.DESK_CLASSES, 5, seed=0).inputs()
    for digits in bench.DESK_CLASSES:
        small = bench._small_digits_for(digits)
        for i, n in enumerate(inputs[digits]):
            parts = _gen_parts(digits, small, bench._derive_seed(0, digits, i))
            assert math.prod(parts) == n
            assert min(parts) > DEFAULT_LIMIT, (digits, i, parts)


def test_run_suite_produces_verified_records(table_1e6):
    suite = BenchSuite([12], 2, [1, 2], seed=4, small_factor_digits=5)
    records = run_suite(suite, RaceConfig(seed=4))
    assert len(records) == 4
    for rec in records:
        assert rec.wall_time_s > 0
        assert rec.factor_count >= 2
    keys = {(r.digit_class, r.workers, r.input_index) for r in records}
    assert len(keys) == 4


def test_run_suite_leaves_the_table_build_out_of_the_first_record(slow_table_build):
    # The first factorize call builds the default table; the record holds
    # only the factorization's own stats.total_s.
    records = run_suite(BenchSuite([12], 1, [1], seed=4, small_factor_digits=5))
    assert records[0].wall_time_s < slow_table_build


def test_run_suite_builds_every_input_once_before_the_first_timing(monkeypatch):
    built = []
    timed = []

    def counted_gen_input(*args):
        built.append(args)
        return gen_input(*args)

    def counted_factorize(n, config):
        timed.append(len(built))
        return factorize(n, config)

    monkeypatch.setattr(bench, "gen_input", counted_gen_input)
    monkeypatch.setattr(bench, "factorize", counted_factorize)
    run_suite(BenchSuite([12, 14], 2, [1, 2], seed=4, small_factor_digits=5))
    assert len(built) == 4
    assert timed == [4] * 8
    # A class gen_input cannot build fails the suite before any timing.
    with pytest.raises(ValueError):
        run_suite(BenchSuite([12, 3], 1, [1], seed=4, small_factor_digits=2))
    assert len(timed) == 8


def test_run_suite_empty_worker_list():
    suite = BenchSuite([12], 2, [], seed=4, small_factor_digits=5)
    assert run_suite(suite, RaceConfig()) == []


def test_run_suite_warns_when_cores_are_short(table_1e6):
    cores = os.cpu_count() or 1
    suite = BenchSuite([12], 1, [cores * 8], seed=4, small_factor_digits=5)
    with pytest.warns(UserWarning, match="core"):
        run_suite(suite, RaceConfig(seed=4))


def test_run_suite_mock_counts(monkeypatch):
    # Full-grid cardinality without full-grid runtime: patch the
    # factorization out and count records.
    calls = []

    class FakeResult:
        factors = {3: 1, 5: 1}
        stats = PipelineStats()

    def fake_factorize(n, config):
        calls.append((n, config.workers))
        return FakeResult()

    monkeypatch.setattr(bench, "factorize", fake_factorize)
    monkeypatch.setattr(bench, "verify", lambda result: True)
    # Enough cores for the grid: the short-cores warning has its own test.
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
    suite = BenchSuite([50, 100, 200], 5, [1, 2, 4], seed=0, small_factor_digits=10)
    records = run_suite(suite, RaceConfig())
    assert len(records) == 45
    assert len(calls) == 45
    assert all(rec.factor_count == 2 for rec in records)


def test_run_suite_verification_failure_raises(monkeypatch, table_1e6):
    monkeypatch.setattr(bench, "verify", lambda result: False)
    suite = BenchSuite([12], 1, [1], seed=4, small_factor_digits=5)
    with pytest.raises(BenchVerificationError):
        run_suite(suite, RaceConfig(seed=4))


def test_summarize_single_record():
    rows = summarize([BenchRecord(20, 1, 0, 10.0, 2)])
    assert rows == [SummaryRow(20, 1, 10.0, 1.0)]


def test_summarize_reference_tables():
    rows = {(r.digit_class, r.workers): r for r in summarize(reference_records())}
    assert rows[(50, 1)].mean_time_s == pytest.approx(22.7486, abs=1e-4)
    assert rows[(50, 4)].mean_time_s == pytest.approx(9.2490, abs=1e-4)
    assert rows[(50, 4)].speedup_vs_1 == pytest.approx(2.46, abs=0.01)
    assert rows[(100, 4)].speedup_vs_1 == pytest.approx(2.26, abs=0.01)
    assert rows[(200, 4)].speedup_vs_1 == pytest.approx(2.17, abs=0.01)


def test_summarize_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        summarize([])
    rec = BenchRecord(20, 1, 0, 10.0, 2)
    with pytest.raises(ValueError, match="duplicate"):
        summarize([rec, rec])
    with pytest.raises(ValueError, match="baseline"):
        summarize([BenchRecord(20, 2, 0, 10.0, 2)])


def test_csv_round_trip(tmp_path):
    records = reference_records()
    rows = summarize(records)
    rec_path = tmp_path / "records.csv"
    sum_path = tmp_path / "summary.csv"
    write_csv(records, BenchRecord._fields, str(rec_path))
    write_csv(rows, SummaryRow._fields, str(sum_path))

    rec_lines = rec_path.read_text().strip().splitlines()
    assert rec_lines[0] == "digit_class,workers,input_index,wall_time_s,factor_count"
    assert len(rec_lines) == 1 + len(records)
    assert rec_lines[1] == "50,1,0,18.221,2"

    sum_lines = sum_path.read_text().strip().splitlines()
    assert sum_lines[0] == "digit_class,workers,mean_time_s,speedup_vs_1"
    assert len(sum_lines) == 1 + len(rows)
    import csv

    with open(sum_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    by_key = {(int(r["digit_class"]), int(r["workers"])): r for r in parsed}
    assert float(by_key[(50, 4)]["speedup_vs_1"]) == pytest.approx(2.4596, abs=1e-4)


def test_plot_script_runs_standalone(tmp_path, capsys):
    """The emitted script compiles and runs on its own from any directory.

    matplotlib is optional (the package declares it only as the ``plot``
    extra), so the render step is checked only where it is importable;
    elsewhere the script must stop with a clear message, not a traceback.
    """
    rows = summarize(reference_records())
    write_csv(rows, SummaryRow._fields, str(tmp_path / "summary.csv"))
    script = tmp_path / "plot_speedup.py"
    write_plot_script(str(script))
    text = script.read_text()
    assert "@SUMMARY@" not in text
    assert "matplotlib" in text
    py_compile.compile(str(script), cfile=str(tmp_path / "plot_speedup.pyc"), doraise=True)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120, cwd=elsewhere,
    )
    png = tmp_path / "speedup.png"
    if importlib.util.find_spec("matplotlib") is not None:
        verdict = "PASS" if proc.returncode == 0 and png.exists() else "FAIL"
        with capsys.disabled():
            print(f"[plot] render: {verdict}", flush=True)
        assert proc.returncode == 0, proc.stderr
        assert png.exists()
    else:
        with capsys.disabled():
            print("[plot] render: SKIP (matplotlib not importable)", flush=True)
        assert proc.returncode != 0
        assert "matplotlib" in proc.stderr
        assert f"read {len(rows)} rows from summary.csv" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not png.exists()
