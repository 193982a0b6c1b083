"""Command-line interface tests, run in-process via cli.main."""

import csv
import errno
import json
import math
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress

import pytest

from rhorace import bench as bench_mod
from rhorace import cli
from rhorace import race as race_mod
from rhorace import rho as rho_mod
from rhorace.bench import gen_input
from rhorace.race import RaceConfig
from test_race import _ANNOUNCE_FORKS, HARD_SEMIPRIME, _assert_no_child, _deadline, _gone


def run_cli(*argv):
    """Invoke main() in-process, folding SystemExit into a return code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_factor_semiprime(capsys):
    assert run_cli("factor", "8051", "--workers", "1") == 0
    assert capsys.readouterr().out == "83^1\n97^1\n"


def test_factor_repeated_prime(capsys):
    assert run_cli("factor", "144", "--workers", "1") == 0
    assert capsys.readouterr().out == "2^4\n3^2\n"


def test_factor_one_prints_nothing(capsys):
    assert run_cli("factor", "1") == 0
    assert capsys.readouterr().out == ""


def test_factor_json_schema(capsys):
    assert run_cli("factor", "8051", "--workers", "1", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"input", "factors", "wall_time_s", "workers"}
    assert payload["input"] == "8051"
    assert payload["factors"] == [{"p": "83", "k": 1}, {"p": "97", "k": 1}]
    assert payload["workers"] == 1
    assert payload["wall_time_s"] >= 0


def test_factor_json_leaves_the_table_build_out(capsys, slow_table_build):
    assert run_cli("factor", "8051", "--json", "--workers", "1") == 0
    assert json.loads(capsys.readouterr().out)["wall_time_s"] < slow_table_build


def test_factor_json_round_trip(capsys):
    for n in ("97", "1", "360", "1000003", "100000980001501"):
        assert run_cli("factor", n, "--workers", "1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        prod = 1
        for entry in payload["factors"]:
            prod *= int(entry["p"]) ** entry["k"]
        assert prod == int(n)


@pytest.mark.parametrize("text", ["abc", "-5", "0", "07", "1.5", ""])
def test_factor_rejects_bad_input(text, capsys):
    assert run_cli("factor", text) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1000036000099", "12"])  # raced, and done by the pre-pass
@pytest.mark.parametrize("option", ["--gcd-batch", "--max-iters"])
def test_factor_rejects_nonpositive_batch_and_budget(n, option, capsys):
    assert run_cli("factor", n, "--workers", "1", option, "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_factor_incomplete_exits_one(capsys):
    n = str(10000019 * 10000079)
    code = run_cli("factor", n, "--workers", "1", "--max-iters", "4", "--gcd-batch", "4")
    assert code == 1
    err = capsys.readouterr().err
    assert "gave up" in err


def test_factor_incomplete_names_every_pending_cofactor(capsys):
    # The budget gives up on the first race's larger part, a product of three
    # primes, while the other part, the prime 1000039, is still untested.
    n = 1000003 * 1000033 * 1000037 * 1000039
    code = run_cli("factor", str(n), "--workers", "1", "--max-iters", "400", "--gcd-batch", "8")
    captured = capsys.readouterr()
    assert code == 1
    (line,) = captured.err.splitlines()
    assert line.startswith("error: gave up on cofactor ")
    head, named = line.split("n = (the primes printed) * ")
    cofactors = [int(c) for c in named.split(" * ")]
    assert 1000039 in cofactors
    printed = 1
    for entry in captured.out.split():
        p, k = entry.split("^")
        printed *= int(p) ** int(k)
    assert printed * math.prod(cofactors) == n


def _racing_argv(command, n, out_dir):
    """factor on n at 2 workers, or a bench whose 2-worker cell races.

    Under race.SOLO_STEPS = 0 either race forks at worker 0's first poll.
    """
    if command == "factor":
        return ["factor", str(n), "--workers", "2"]
    return ["bench", "--classes", "30", "--per-class", "1", "--workers", "1,2",
            "--small-digits", "8", "--out", str(out_dir)]


@pytest.mark.parametrize("command", ["factor", "bench"])
def test_fork_failure_exits_one(command, monkeypatch, tmp_path, capsys):
    # The patched fork fails as a full process table would.
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(race_mod, "SOLO_STEPS", 0)
    monkeypatch.setattr(os, "fork", no_fork)
    out_dir = tmp_path / "bench"
    with _deadline(10):
        code = run_cli(*_racing_argv(command, 5063259979 * 94887001943, out_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: could not start the race workers: ")
    assert "Resource temporarily unavailable" in lines[0]
    assert not out_dir.exists()
    _assert_no_child()


@pytest.mark.parametrize("command", ["factor", "bench"])
def test_failed_worker_exits_one(command, monkeypatch, tmp_path, capsys):
    # The forked child raises at its first batch; worker 0 cannot split
    # HARD_SEMIPRIME first, so the child's error ends the race.  In bench,
    # the caller reads every child's report before the round returns, so
    # the error ends the 2-worker cell whoever finds a factor first.
    monkeypatch.setattr(race_mod, "SOLO_STEPS", 0)
    caller = os.getpid()
    resume = rho_mod.resume

    def child_raises(n, walk, cancel=None):
        if os.getpid() == caller:
            return resume(n, walk, cancel)
        raise ValueError("planted")

    monkeypatch.setattr(rho_mod, "resume", child_raises)
    out_dir = tmp_path / "bench"
    with _deadline(10):
        code = run_cli(*_racing_argv(command, HARD_SEMIPRIME, out_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: race worker")
    assert not out_dir.exists()
    _assert_no_child()


def test_factor_brent_detector(capsys):
    assert run_cli("factor", "8051", "--workers", "1", "--detector", "brent") == 0
    assert capsys.readouterr().out == "83^1\n97^1\n"


def test_factor_detector_defaults_to_race_config():
    args = cli.build_parser().parse_args(["factor", "8051"])
    assert args.detector == RaceConfig().detector


def test_gen_deterministic_and_sized(capsys):
    assert run_cli("gen", "--digits", "20", "--small", "6", "--seed", "5") == 0
    first = capsys.readouterr().out.strip()
    assert run_cli("gen", "--digits", "20", "--small", "6", "--seed", "5") == 0
    assert capsys.readouterr().out.strip() == first
    assert len(first) == 20


def test_gen_count(capsys):
    assert run_cli("gen", "--digits", "12", "--small", "4", "--count", "3") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert len(set(lines)) == 3
    assert all(len(line) == 12 for line in lines)


def test_gen_bad_params(capsys):
    assert run_cli("gen", "--digits", "3", "--small", "2") == 2
    assert run_cli("gen", "--digits", "20", "--count", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 2


def test_gen_readme_example(capsys):
    assert run_cli("gen", "--digits", "30", "--seed", "7") == 0
    assert capsys.readouterr().out == "754922180314866211108420120531\n"


def test_bench_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = run_cli(
        "bench",
        "--classes", "12",
        "--per-class", "2",
        "--workers", "1,2",
        "--small-digits", "5",
        "--out", str(out_dir),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    records = (out_dir / "records.csv").read_text().strip().splitlines()
    assert records[0] == "digit_class,workers,input_index,wall_time_s,factor_count"
    assert len(records) == 1 + 2 * 2
    summary = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "digit_class,workers,mean_time_s,speedup_vs_1"
    assert len(summary) == 1 + 2
    assert (out_dir / "plot_speedup.py").exists()
    # Each printed row agrees with summary.csv at the printed precision:
    # the mean to a thousandth of a millisecond, the speedup to a hundredth.
    assert lines[0].split() == ["digits", "workers", "mean_ms", "speedup"]
    for line, row in zip(lines[1:3], csv.DictReader(summary)):
        digits, workers, mean_ms, speedup = line.split()
        assert (digits, workers) == (row["digit_class"], row["workers"])
        assert len(mean_ms.split(".")[1]) == 3
        assert abs(float(mean_ms) - float(row["mean_time_s"]) * 1e3) <= 0.0005 + 1e-9
        assert abs(float(speedup) - float(row["speedup_vs_1"])) <= 0.005 + 1e-9


def test_bench_unwritable_out_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = run_cli(
        "bench",
        "--classes", "12",
        "--per-class", "1",
        "--workers", "1",
        "--small-digits", "5",
        "--out", str(blocker),
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--per-class", "0"],
        ["--classes", "3"],
        ["--classes", "20", "--small-digits", "15"],
        ["--classes", "12", "--per-class", "1", "--small-digits", "0"],
        ["--classes", "12", "--per-class", "1", "--small-digits", "5", "--workers", "2"],
    ],
)
def test_bench_rejects_unbuildable_suites(args, tmp_path, capsys):
    # A suite with no 1-worker baseline has no speedups, so it is unbuildable too.
    out_dir = tmp_path / "bench"
    assert run_cli("bench", "--workers", "1", *args, "--out", str(out_dir)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args",
    [["--workers", "0,1"], ["--classes", "20,x"], ["--classes", "12,12"], ["--workers", "1,1"]],
    ids=["zero-workers", "garbage-classes", "repeated-class", "repeated-workers"],
)
def test_bench_rejects_bad_lists(args, monkeypatch, tmp_path):
    # argparse refuses the list, so no cell is timed.
    def no_run(*_):
        pytest.fail("run_suite ran on a list the parser should refuse")

    monkeypatch.setattr(bench_mod, "run_suite", no_run)
    out_dir = tmp_path / "bench"
    assert run_cli("bench", *args, "--out", str(out_dir)) == 2
    assert not out_dir.exists()


def test_bench_exits_130_on_ctrl_c(monkeypatch, tmp_path, capsys):
    def interrupted(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench_mod, "factorize", interrupted)
    out_dir = tmp_path / "bench"
    code = run_cli(
        "bench", "--classes", "12", "--per-class", "1", "--workers", "1",
        "--small-digits", "5", "--out", str(out_dir),
    )
    assert code == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert not out_dir.exists()


def test_no_subcommand_is_usage_error():
    assert run_cli() == 2


def test_selftest_passes(capsys):
    assert run_cli("selftest", "--limit", "2000") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 6
    assert "0 failure(s)" in out


def test_selftest_report_is_deterministic(capsys):
    run_cli("selftest", "--limit", "500")
    first = capsys.readouterr().out
    run_cli("selftest", "--limit", "500")
    assert capsys.readouterr().out == first


def test_selftest_catches_sabotage(monkeypatch, capsys):
    # Break the gcd used by the attempt loop; the self-test must notice and
    # name a failing check rather than report success.
    monkeypatch.setattr(rho_mod, "gcd", lambda a, b: 1)
    assert run_cli("selftest", "--limit", "50") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_selftest_rejects_bad_limit(capsys):
    assert run_cli("selftest", "--limit", "0") == 2


def test_module_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "rhorace", "factor", "8051", "--workers", "1"],
        env=src_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "83^1\n97^1\n"


def test_gen_into_a_pipe_whose_reader_left_exits_quietly(src_env):
    # As `rhorace gen ... | head -1`: the reader takes one line and leaves.
    argv = ["gen", "--digits", "12", "--small", "4", "--count", "20000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "rhorace", *argv],
        env=src_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert len(first.strip()) == 12
    assert err == ""


_ANNOUNCED_FACTOR = _ANNOUNCE_FORKS + """
import sys
from rhorace import cli
sys.exit(cli.main(["factor", "--workers", "2", sys.argv[1]]))
"""


@pytest.mark.parametrize("group", [False, True], ids=["caller", "process-group"])
def test_factor_exits_130_on_ctrl_c(group, src_env):
    # A 60-digit input with an 18-digit planted prime races for hours.  The
    # SIGINT goes to the caller alone, or, as a terminal's Ctrl-C does, to
    # its whole process group, children included.
    n = gen_input(60, 18, 1)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ANNOUNCED_FACTOR, str(n)],
        env=src_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        # SIGINT as a terminal's shell leaves it, even when pytest runs as a
        # background job, which ignores SIGINT and would pass that on.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    pids = []
    try:
        with _deadline(20):
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            time.sleep(1)
            if group:
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            out, err = proc.communicate()
        pids += [int(pid) for pid in out.split()]
        assert proc.returncode == 130
        assert err == "error: interrupted\n"
        assert len(pids) >= 1
        assert [pid for pid in pids if not _gone(pid)] == []
    finally:
        for pid in pids:
            if not _gone(pid):
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.communicate()


def test_console_script_if_installed():
    from shutil import which

    exe = which("rhorace")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "factor", "91", "--workers", "1"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == "7^1\n13^1\n"
