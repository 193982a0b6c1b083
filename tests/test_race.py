"""Race coordination tests: constant assignment, winner claim, retries."""

import errno
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import pytest

from rhorace import race, rho
from rhorace.bench import _random_prime_digits
from rhorace.race import (
    FactorSearchExhausted,
    RaceConfig,
    RaceOutcome,
    race_factor,
)
from rhorace.rho import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    FACTOR,
    NO_FACTOR_CYCLE,
    RhoOutcome,
    RhoParams,
)
from test_rho import _CancelAfter, brent_attempt

SEMIPRIME = 1000003 * 1000033  # both factors just beyond the pre-pass limit
# 10 x 11 digits: Brent's walk with c=1 takes ~238k steps, far past the mark.
LONG_SEMIPRIME = 5063259979 * 94887001943
# 16 x 16 digits: a Brent walk takes hours to find a factor.
HARD_SEMIPRIME = 1000000000000037 * 3000000000000037


class _ResumeSpy:
    """rho.resume, logging each walk's c and calling through.

    The log is a file, so forked workers log too.  A walk whose c passes
    fails returns NO_FACTOR_CYCLE at once instead of walking.
    """

    def __init__(self, log, fails=lambda c: False):
        self.real = rho.resume
        self.log = log
        self.fails = fails

    def __call__(self, n, walk, cancel=None):
        with open(self.log, "a") as f:
            f.write(f"{walk.params.c}\n")
        if self.fails(walk.params.c):
            return RhoOutcome(NO_FACTOR_CYCLE, 1, walk=walk)
        return self.real(n, walk, cancel)

    def constants(self):
        """Every c walked so far, in ascending order."""
        return sorted(int(c) for c in self.log.read_text().split()) if self.log.exists() else []


def _constants_of(outcome):
    return [o.walk.params.c for o in outcome.worker_outcomes]


def test_race_first_round_takes_the_constants_1_to_k():
    for workers in (1, 2, 4):
        outcome = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=6))
        assert outcome.rounds == 1
        assert _constants_of(outcome) == list(range(1, workers + 1))


def test_race_constants_skip_the_banned_residues(monkeypatch, tmp_path):
    # mod 5 the banned residues are 0 and 3 (= n-2), so 3 is skipped, and
    # a second round finds no unused constant.
    spy = _ResumeSpy(tmp_path / "cs", fails=lambda c: True)
    monkeypatch.setattr(rho, "resume", spy)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(5, RaceConfig(workers=3))
    assert exc_info.value.rounds == 1
    assert spy.constants() == [1, 2, 4]
    _assert_no_child()


def test_race_never_repeats_a_constant_across_rounds(monkeypatch, tmp_path):
    # Each round takes the next k constants of the one sequence.
    spy = _ResumeSpy(tmp_path / "cs", fails=lambda c: True)
    monkeypatch.setattr(rho, "resume", spy)
    monkeypatch.setattr(race, "MAX_ROUNDS", 4)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(SEMIPRIME, RaceConfig(workers=3, seed=2))
    assert exc_info.value.rounds == 4
    assert spy.constants() == list(range(1, 13))
    _assert_no_child()


def test_race_gives_none_entries_the_lowest_free_constants():
    config = RaceConfig(workers=3, seed=6)

    def walk(c):
        return rho.start("brent", RhoParams.make(SEMIPRIME, c, x0=5))

    for walks, expected in (
        ([None, walk(1), walk(2)], [3, 1, 2]),
        ([walk(2), None, None], [2, 1, 3]),
        ([None, walk(5), None], [1, 5, 2]),
    ):
        outcome = race_factor(SEMIPRIME, config, walks)
        assert outcome.rounds == 1
        assert _constants_of(outcome) == expected


def test_race_with_more_workers_than_constants_is_exhausted_at_once(monkeypatch, tmp_path):
    # n=5 has exactly three usable residues; a fourth worker cannot start.
    spy = _ResumeSpy(tmp_path / "cs")
    monkeypatch.setattr(rho, "resume", spy)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(5, RaceConfig(workers=4))
    assert exc_info.value.rounds == 0
    assert spy.constants() == []


@pytest.mark.parametrize(
    ("field", "value"),
    [("workers", -1), ("max_iters", 0), ("gcd_batch", 0), ("detector", "nope")],
)
def test_race_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RaceConfig(**{field: value})


def test_race_config_reads_its_defaults_from_the_class_and_copies_by_its_fields():
    config = RaceConfig(seed=7)
    assert (RaceConfig.workers, RaceConfig.detector, RaceConfig.max_iters) == (0, "brent", None)
    assert config == RaceConfig(0, 7, None, rho.DEFAULT_GCD_BATCH, "brent") != RaceConfig()
    copy = RaceConfig(**{**vars(config), "workers": 2})
    assert (copy.workers, copy.seed, config.workers) == (2, 7, 0)
    assert repr(config) == "RaceConfig(workers=0, seed=7, max_iters=None, gcd_batch=128, detector='brent')"


@pytest.mark.parametrize("detector", rho.DETECTORS)
def test_single_worker_race_is_a_direct_attempt(monkeypatch, detector):
    # workers=1 is worker 0 alone; the outcome must be byte-identical to
    # walking the detector with the same derived parameters, also past the
    # mark, where a race of more workers would fork.
    counting = _CountingFork(monkeypatch)
    config = RaceConfig(workers=1, seed=9, detector=detector)
    for n in (8051, LONG_SEMIPRIME):
        outcome = race_factor(n, config)
        rng = random.Random(9)
        x0 = rng.randrange(n)
        direct = rho.resume(n, rho.start(detector, RhoParams.make(n, c=1, x0=x0)))
        assert direct.found
        assert outcome.factor == direct.factor
        assert outcome.per_worker_iterations == [direct.iterations]
        assert outcome.winner == 0
        assert outcome.rounds == 1
        assert outcome.worker_outcomes == [direct]
    # LONG_SEMIPRIME's walk went far past the mark, and nothing was forked.
    assert direct.iterations > race.SOLO_STEPS
    assert counting.starts == 0


def test_single_worker_race_reproducible():
    config = RaceConfig(workers=1, seed=4)
    a = race_factor(SEMIPRIME, config)
    b = race_factor(SEMIPRIME, config)
    assert (a.factor, a.winner, a.rounds, a.per_worker_iterations) == (
        b.factor,
        b.winner,
        b.rounds,
        b.per_worker_iterations,
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_multiworker_race_finds_valid_factor(workers):
    outcome = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=3))
    assert outcome.factor in (1000003, 1000033)
    assert 0 <= outcome.winner < workers
    assert len(outcome.per_worker_iterations) == workers
    assert outcome.worker_outcomes[outcome.winner].kind == FACTOR
    _assert_no_child()


def test_race_factor_valid_across_schedules():
    # Scheduling may hand the win to any worker; the factor must divide n
    # every single time.
    for seed in range(20):
        outcome = race_factor(8051, RaceConfig(workers=2, seed=seed))
        assert 8051 % outcome.factor == 0
        assert outcome.factor in (83, 97)


def test_race_explicit_constants_and_starts():
    walk = rho.start("floyd", RhoParams.make(8051, c=1, x0=2, gcd_batch=1))
    outcomes, winner = _one_round(8051, [walk])
    assert winner == 0
    assert outcomes == [RhoOutcome(FACTOR, 3, 97)]


def test_race_rejects_bad_inputs():
    with pytest.raises(ValueError):
        race_factor(10, RaceConfig(workers=1))
    with pytest.raises(ValueError):
        race_factor(1, RaceConfig(workers=1))
    with pytest.raises(ValueError):
        race_factor(8051, RaceConfig(workers=1, detector="nope"))


def test_race_retries_with_fresh_constants(monkeypatch, tmp_path):
    # Every round-1 walk (c = 1..k) fails; round 2 races k+1..2k for real.
    k = 2
    for detector in rho.DETECTORS:
        spy = _ResumeSpy(tmp_path / detector, fails=lambda c: c <= k)
        monkeypatch.setattr(rho, "resume", spy)
        outcome = race_factor(SEMIPRIME, RaceConfig(workers=k, seed=3, detector=detector))
        monkeypatch.setattr(rho, "resume", spy.real)
        assert outcome.rounds == 2
        assert _constants_of(outcome) == list(range(k + 1, 2 * k + 1))
        assert SEMIPRIME % outcome.factor == 0
        assert 1 < outcome.factor < SEMIPRIME
        assert spy.constants()[:k] == list(range(1, k + 1))
        _assert_no_child()


def test_race_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(race, "MAX_ROUNDS", 4)
    config = RaceConfig(workers=1, seed=0, max_iters=8, gcd_batch=8)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(SEMIPRIME, config)
    assert exc_info.value.n == SEMIPRIME
    assert exc_info.value.rounds == 4


def test_race_exhaustion_when_constants_run_out(monkeypatch):
    # n=5 offers three usable residues (1, 2, 4): one round each, then no
    # fresh constant is left for a fourth round.
    def never_finds(n, walk, cancel=None):
        return RhoOutcome(NO_FACTOR_CYCLE, 1, walk=walk)

    monkeypatch.setattr(rho, "resume", never_finds)
    monkeypatch.setattr(race, "MAX_ROUNDS", 16)
    config = RaceConfig(workers=1)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(5, config)
    assert exc_info.value.rounds == 3


def test_race_brent_detector():
    outcome = race_factor(SEMIPRIME, RaceConfig(workers=1, seed=2, detector="brent"))
    assert SEMIPRIME % outcome.factor == 0
    assert 1 < outcome.factor < SEMIPRIME


class _Overrun(BaseException):
    """The deadline's error: not an Exception, so no worker can report it."""


@contextmanager
def _deadline(seconds):
    """Raise _Overrun in this process if the block runs past seconds."""

    def expire(signum, frame):
        raise _Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _CountingFork:
    """os.fork, patched for one test, counting the forks of this process."""

    def __init__(self, monkeypatch):
        self.real = os.fork
        self.starts = 0
        monkeypatch.setattr(os, "fork", self)

    def __call__(self):
        self.starts += 1
        return self.real()


class _ExitAfterReport(_CountingFork):
    """os.fork, patched for one test: the victim-th child of this process
    exits with code 0 right after its first report."""

    def __init__(self, monkeypatch, victim):
        super().__init__(monkeypatch)
        self.victim = victim

    def __call__(self):
        pid = super().__call__()
        if pid == 0 and self.starts == self.victim:  # in the child, which owns its os module
            write = os.write

            def write_then_exit(fd, data):
                write(fd, data)
                os._exit(0)

            os.write = write_then_exit
        return pid


def _one_round(n, walks):
    """race._run_round on a crew of its own, closed once the round ends."""
    crew = race._Crew()
    try:
        return race._run_round(n, walks, crew)
    finally:
        crew.close()


def _assert_no_child():
    """Assert that this process has no child at all, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_race_forks_one_process_fewer_than_workers(monkeypatch, workers):
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    counting = _CountingFork(monkeypatch)
    outcome = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert SEMIPRIME % outcome.factor == 0
    assert len(outcome.worker_outcomes) == workers
    assert counting.starts == workers - 1
    _assert_no_child()


def test_a_direct_race_forks_and_reaps_a_crew_of_its_own(monkeypatch, tmp_path):
    # The first round's walks meet their cycle at once; the crew forked
    # for it walks the second round too, and is gone when the call returns.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    monkeypatch.setattr(rho, "resume", _ResumeSpy(tmp_path / "cs", fails=lambda c: c <= 3))
    counting = _CountingFork(monkeypatch)
    for calls in (1, 2):
        outcome = race_factor(SEMIPRIME, RaceConfig(workers=3, seed=3))
        assert SEMIPRIME % outcome.factor == 0
        assert outcome.rounds == 2
        assert counting.starts == 2 * calls
        _assert_no_child()


def test_race_reports_a_child_that_exits_between_rounds(monkeypatch):
    # Child 1 exits after its first-round report; worker 0's second-round
    # walk waits until it is gone, so the walk handed to it meets a broken
    # pipe, which must give the lost child's error, not a BrokenPipeError.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()
    resume = rho.resume

    def first_round_cycles(n, walk, cancel=None):
        if walk.params.c <= 2:
            return RhoOutcome(NO_FACTOR_CYCLE, 1, walk=walk)
        if os.getpid() == coordinator:
            time.sleep(0.2)
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", first_round_cycles)
    _ExitAfterReport(monkeypatch, 1)
    lost = r"race worker 1 exited with code 0 without reporting"
    with _deadline(5), pytest.raises(RuntimeError, match=lost):
        race_factor(HARD_SEMIPRIME, RaceConfig(workers=2, seed=1))
    _assert_no_child()


def test_race_child_winner_cancels_the_coordinator(monkeypatch):
    """Criterion 8 with the planted winner in a forked child, worker 1.

    Worker 0 runs in this process; the child's factor must stop it at a
    batch boundary, not at its budget.  The children are forked at once.
    """
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    rng = random.Random(20260814)
    p = _random_prime_digits(rng, 12)
    r = _random_prime_digits(rng, 100)
    n = p * r**15  # ~1500 digits: one iteration costs ~0.2-0.3 ms
    batch = 16
    budget = 1_000_000
    walks = [
        rho.start("floyd", RhoParams.make(n, c, x0=0, max_iters=budget, gcd_batch=batch))
        for c in (1, 2 * p, 2)
    ]
    with _deadline(20):
        outcomes, winner = _one_round(n, walks)
    assert winner == 1
    winner_out = outcomes[1]
    assert winner_out.kind == FACTOR
    assert winner_out.factor == p
    assert winner_out.iterations == batch
    slack = 64 * batch  # the same allowance as criterion 8
    for idx in (0, 2):
        out = outcomes[idx]
        assert out.kind == CANCELLED, f"worker {idx} ended as {out.kind}"
        assert out.iterations % batch == 0
        assert out.iterations <= winner_out.iterations + slack, (
            f"worker {idx} ran {out.iterations} iterations"
        )
    _assert_no_child()


def test_race_fails_fast_when_a_child_dies_silently(monkeypatch):
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()
    resume = rho.resume

    def exit_in_child(n, walk, cancel=None):
        if os.getpid() != coordinator:
            os._exit(3)
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", exit_in_child)
    config = RaceConfig(workers=3, seed=1, detector="floyd")
    with _deadline(5), pytest.raises(RuntimeError, match=r"race worker [12] exited with code 3"):
        race_factor(SEMIPRIME, config)
    _assert_no_child()


def test_a_child_never_returns_into_the_callers_frames(monkeypatch, tmp_path):
    # KeyboardInterrupt is no Exception, so the child cannot report it; it
    # must still leave through os._exit, not unwind into this test's frames.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()
    resume = rho.resume

    def interrupted_in_child(n, walk, cancel=None):
        if os.getpid() != coordinator:
            raise KeyboardInterrupt
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", interrupted_in_child)
    ran_in = tmp_path / "pids"
    lost = r"race worker 1 exited with code [1-9][0-9]* without reporting"
    try:
        with _deadline(5), pytest.raises(RuntimeError, match=lost):
            race_factor(HARD_SEMIPRIME, RaceConfig(workers=2, seed=1))
    finally:
        with open(ran_in, "a") as f:
            f.write(f"{os.getpid()}\n")
        if os.getpid() != coordinator:
            os._exit(0)  # a child that got here must not run on into pytest
    assert ran_in.read_text().split() == [str(coordinator)]
    _assert_no_child()


def test_race_leaves_no_child_when_the_coordinator_is_interrupted(monkeypatch):
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()
    resume = rho.resume

    def interrupted_here(n, walk, cancel=None):
        if os.getpid() == coordinator:
            cancel(race.SOLO_STEPS)  # worker 0's poll at the mark forks the children
            raise KeyboardInterrupt
        time.sleep(60)  # a child that would outlive the round on its own
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", interrupted_here)
    with _deadline(5), pytest.raises(KeyboardInterrupt):
        race_factor(SEMIPRIME, RaceConfig(workers=3, seed=1, detector="floyd"))
    _assert_no_child()


@pytest.mark.parametrize(
    "call, failing", [("pipe", 1), ("pipe", 2), ("fork", 1)], ids=["stop-pipe", "report-pipe", "fork"]
)
def test_race_start_failure_closes_every_pipe_end(monkeypatch, call, failing):
    # The only child's start fails at its first os.pipe, its second, or
    # its os.fork, as a full descriptor or process table would make it;
    # no process is started.
    real = getattr(os, call)
    calls = []

    def flaky():
        calls.append(call)
        if len(calls) == failing:
            raise OSError(errno.EMFILE, "Too many open files")
        return real()

    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    monkeypatch.setattr(os, call, flaky)
    failed = rf"^could not start the race workers: \[Errno {errno.EMFILE}\] Too many open files$"
    open_fds = len(os.listdir("/proc/self/fd"))
    with _deadline(5), pytest.raises(RuntimeError, match=failed):
        race_factor(LONG_SEMIPRIME, RaceConfig(workers=2))
    assert len(os.listdir("/proc/self/fd")) == open_fds
    _assert_no_child()


def test_race_fails_fast_when_a_child_dies_during_worker_0s_walk(monkeypatch):
    # Worker 0 alone would walk for hours: its own poll must see the child die.
    coordinator = os.getpid()
    resume = rho.resume

    def exit_in_child(n, walk, cancel=None):
        if os.getpid() != coordinator:
            os._exit(3)
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", exit_in_child)
    config = RaceConfig(workers=2, seed=1, detector="brent")
    with _deadline(1), pytest.raises(RuntimeError, match=r"race worker 1 exited with code 3"):
        race_factor(HARD_SEMIPRIME, config)
    _assert_no_child()


def test_race_reports_a_child_lost_after_the_stop_was_sent(monkeypatch):
    # Worker 0 wins in its first batch and sends the stop; the children exit
    # with it unread, and their report pipes read EOF.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()
    rng = random.Random(20261019)
    p = _random_prime_digits(rng, 12)
    n = p * _random_prime_digits(rng, 30)
    resume = rho.resume

    def exit_late_in_child(n, walk, cancel=None):
        if os.getpid() != coordinator:
            time.sleep(0.3)
            os._exit(3)
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", exit_late_in_child)
    walks = [rho.start("floyd", RhoParams.make(n, c, x0=0, gcd_batch=16)) for c in (2 * p, 1, 2)]
    lost = r"race worker [12] exited with code 3 without reporting"
    with _deadline(5), pytest.raises(RuntimeError, match=lost):
        _one_round(n, walks)
    _assert_no_child()


# Script lines that make each crew print its children's pids as it forks them.
_ANNOUNCE_FORKS = """
from rhorace import race

fork = race._Crew.fork

def announce(self, children):
    fork(self, children)
    print(*self.procs.values(), flush=True)

race._Crew.fork = announce
"""
_ANNOUNCE_CHILDREN = _ANNOUNCE_FORKS + f"""
from rhorace import RaceConfig, factorize
factorize({HARD_SEMIPRIME}, RaceConfig(workers=3))
"""


def _gone(pid):
    """True once pid has exited: no such process, or a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_no_child_outlives_a_killed_caller(sig, src_env):
    # The caller's try/finally cannot run on these signals: each child must
    # see its pipe close and stop by itself.
    caller = subprocess.Popen(
        [sys.executable, "-c", _ANNOUNCE_CHILDREN], env=src_env, stdout=subprocess.PIPE, text=True
    )
    pids = []
    try:
        with _deadline(20):
            pids = [int(pid) for pid in caller.stdout.readline().split()]
            assert len(pids) == 2
            time.sleep(0.5)  # both children are walking
            caller.send_signal(sig)
            caller.wait()
            give_up = time.monotonic() + 2
            while not all(_gone(pid) for pid in pids) and time.monotonic() < give_up:
                time.sleep(0.01)
            assert [pid for pid in pids if not _gone(pid)] == []
    finally:
        for pid in pids:
            if not _gone(pid):
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        caller.kill()
        caller.wait()
        caller.stdout.close()


@pytest.mark.parametrize(
    "raiser, past_the_mark, forks, error, match",
    [
        (0, False, 0, ValueError, "planted"),
        (0, True, 2, ValueError, "planted"),
        (1, True, 2, RuntimeError, r"race worker 1 failed: ValueError\('planted'\)$"),
    ],
    ids=["worker-0-at-once", "worker-0-after-the-fork", "child"],
)
def test_race_fails_fast_when_a_worker_raises(
    monkeypatch, raiser, past_the_mark, forks, error, match
):
    # The others would walk for hours; the error must end the round at once.
    # Worker 0 runs in the caller, so its own exception propagates as it is.
    resume = rho.resume

    def raises_in_one_worker(n, walk, cancel=None):
        params = walk.params
        if params.c != raiser + 1:  # first-round constants are 1, 2, 3
            return resume(n, walk, cancel)
        if past_the_mark:
            short = params._replace(max_iters=race.SOLO_STEPS + params.gcd_batch)
            resume(n, walk._replace(params=short), cancel)
        raise ValueError("planted")

    counting = _CountingFork(monkeypatch)
    monkeypatch.setattr(rho, "resume", raises_in_one_worker)
    config = RaceConfig(workers=3, seed=1, detector="brent")
    with _deadline(1), pytest.raises(error, match=match):
        race_factor(HARD_SEMIPRIME, config)
    assert counting.starts == forks
    _assert_no_child()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_race_forks_only_once_worker_0_passes_the_mark(monkeypatch, workers):
    counting = _CountingFork(monkeypatch)
    short = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert (short.winner, counting.starts) == (0, 0)
    assert short.worker_outcomes[1:] == [RhoOutcome(CANCELLED, 0)] * (workers - 1)
    long = race_factor(LONG_SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert long.factor in (5063259979, 94887001943)
    assert len(long.worker_outcomes) == workers
    assert counting.starts == workers - 1
    _assert_no_child()


def test_race_worker_0_walks_on_through_the_fork(monkeypatch):
    # Worker 0 wins before the mark on SEMIPRIME and past it on
    # LONG_SEMIPRIME, whose children have a one-step budget: they report
    # and exit at once, which must neither stop worker 0 nor restart it.
    counting = _CountingFork(monkeypatch)
    for n, forks in ((SEMIPRIME, 0), (LONG_SEMIPRIME, 2)):
        params_list = [RhoParams.make(n, 1, x0=5)]
        params_list += [RhoParams.make(n, c, x0=5, max_iters=1) for c in (2, 3)]
        outcomes, winner = _one_round(n, [rho.start("brent", p) for p in params_list])
        assert winner == 0
        assert outcomes[0] == brent_attempt(n, params_list[0])
        assert counting.starts == forks
    assert outcomes[1:] == [RhoOutcome(BUDGET_EXHAUSTED, 1)] * 2
    _assert_no_child()


def test_race_forks_the_others_when_worker_0_fails_before_the_mark(monkeypatch):
    counting = _CountingFork(monkeypatch)
    params_list = [
        RhoParams.make(SEMIPRIME, 1, x0=5, max_iters=128),
        RhoParams.make(SEMIPRIME, 2, x0=5),
    ]
    outcomes, winner = _one_round(SEMIPRIME, [rho.start("brent", p) for p in params_list])
    assert counting.starts == 1
    assert winner == 1
    assert outcomes == [RhoOutcome(BUDGET_EXHAUSTED, 128), brent_attempt(SEMIPRIME, params_list[1])]
    _assert_no_child()


def _record_forks(monkeypatch):
    """The steps worker 0 reported at the poll that forked, one per crew."""
    seen = []
    poll = race._Round.poll

    def recording(self, steps):
        forked = self.crew.forked
        out = poll(self, steps)
        if not forked and self.crew.forked:
            seen.append(steps)
        return out

    monkeypatch.setattr(race._Round, "poll", recording)
    return seen


# Brent's phases r = 1..64 take 254 steps in 14 batches, then every batch is
# 128 steps long: its first batch boundary past the mark is 254 + 51 * 128.
@pytest.mark.parametrize("detector, fork_at", [("floyd", 52 * 128), ("brent", 254 + 51 * 128)])
def test_race_forks_at_worker_0s_first_batch_boundary_past_the_mark(monkeypatch, detector, fork_at):
    assert race.SOLO_STEPS == 52 * 128
    seen = _record_forks(monkeypatch)
    walks = [
        rho.start(detector, RhoParams.make(HARD_SEMIPRIME, 1, x0=5, max_iters=254 + 56 * 128)),
        rho.start(detector, RhoParams.make(HARD_SEMIPRIME, 2, x0=5, max_iters=1)),
    ]
    outcomes, winner = _one_round(HARD_SEMIPRIME, walks)
    assert winner is None
    assert seen == [fork_at]
    assert outcomes[0] == rho.resume(HARD_SEMIPRIME, walks[0])
    # A resumed walk counts only the steps it walks in this race: past
    # phase r = 64 its batches are whole, so it forks at the mark itself.
    # (walked=0 hands it a whole budget again.)
    walk = outcomes[0].walk
    outcomes, winner = _one_round(HARD_SEMIPRIME, [walk._replace(walked=0), walks[1]])
    assert seen == [fork_at, race.SOLO_STEPS]
    assert outcomes[0].iterations == 254 + 56 * 128
    _assert_no_child()


def test_race_resumes_each_worker_and_reports_its_end_state(monkeypatch):
    # Two walks of a first race on n, reduced mod a cofactor m, race m
    # again; every worker is forked at once, so both walk in both races.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    p = 5063259979
    n = p * LONG_SEMIPRIME
    config = RaceConfig(workers=2, seed=6)
    first = race_factor(n, config)
    _assert_no_child()
    m = n // first.factor
    walks = first.walks_over(m)
    for out, walk in zip(first.worker_outcomes, walks):
        assert out.kind in (FACTOR, CANCELLED)
        assert walk == out.walk.over(m)
    second = race_factor(m, config, walks)
    assert m % second.factor == 0
    assert second.rounds == 1
    for out, walk in zip(second.worker_outcomes, walks):
        assert out.walk.walked == walk.walked + out.iterations
        assert out.walk.params == walk.params
    _assert_no_child()


def test_race_ends_a_walk_whose_lifetime_budget_runs_out_mid_race(monkeypatch):
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    budget = 10**6
    tired_params = RhoParams.make(LONG_SEMIPRIME, 2, x0=5, max_iters=budget)
    tired = brent_attempt(LONG_SEMIPRIME, tired_params, _CancelAfter(20))
    assert tired.kind == CANCELLED
    tired_walk = tired.walk._replace(walked=budget - 512)
    winner_walk = rho.start("brent", RhoParams.make(LONG_SEMIPRIME, 1, x0=5))
    outcomes, winner = _one_round(LONG_SEMIPRIME, [winner_walk, tired_walk])
    assert winner == 0
    assert outcomes[1] == RhoOutcome(BUDGET_EXHAUSTED, 512)
    assert outcomes[1].walk.walked == budget
    _assert_no_child()


def test_unforked_worker_keeps_the_walk_it_was_handed():
    walk = brent_attempt(SEMIPRIME, RhoParams.make(SEMIPRIME, 2, x0=5), _CancelAfter(3)).walk
    fresh = rho.start("brent", RhoParams.make(SEMIPRIME, 1, x0=5))
    outcomes, winner = _one_round(SEMIPRIME, [fresh, walk])
    assert winner == 0
    assert outcomes[1] == RhoOutcome(CANCELLED, 0)
    assert outcomes[1].walk == walk


@pytest.mark.parametrize("max_iters", [None, 5000], ids=["no-budget", "budget"])
@pytest.mark.parametrize("detector", rho.DETECTORS)
def test_a_walks_line_reads_back_as_the_walk(detector, max_iters):
    params = RhoParams.make(SEMIPRIME, 3, x0=11, max_iters=max_iters, gcd_batch=16)
    fresh = rho.start(detector, params)
    # 20 batches of 16 end Brent's walk in the compared half of phase r = 64.
    carried = rho.resume(SEMIPRIME, fresh, _CancelAfter(20)).walk
    assert carried.walked > 0
    if detector == "brent":
        x, y, r, k = carried.state
        assert r < k < 2 * r
    for walk in (fresh, carried):
        line = race._walk_line(SEMIPRIME, walk)
        assert "\n" not in line
        assert race._parse_walk(line) == (SEMIPRIME, walk)


def test_walks_over_carries_only_walks_that_can_go_on():
    n = 1000003 * 1000033 * 1000037
    m = n // 1000003

    def walk(c):
        return brent_attempt(n, RhoParams.make(n, c, x0=7), _CancelAfter(2)).walk

    never_forked = rho.start("brent", RhoParams.make(n, 5, x0=7))
    outcomes = [
        RhoOutcome(FACTOR, 9, 1000003, walk(1)),
        RhoOutcome(CANCELLED, 8, None, walk(2)),
        RhoOutcome(CANCELLED, 0, None, never_forked),  # goes on untouched
        RhoOutcome(NO_FACTOR_CYCLE, 8, None, walk(3)),
        RhoOutcome(BUDGET_EXHAUSTED, 8, None, walk(4)),
        RhoOutcome(CANCELLED, 8, None, walk(m - 2)),  # c = -2 mod m
    ]
    won = RaceOutcome(1000003, 0, 1, outcomes)
    carried = [walk(1).over(m), walk(2).over(m), never_forked.over(m), None, None, None]
    assert won.walks_over(m) == carried
    assert carried[2].walked == 0
    lost = RaceOutcome(1000003, 1, 1, outcomes[3:])
    assert lost.walks_over(m) is None


def test_race_draws_fresh_constants_for_a_worker_handed_no_walk():
    # A None entry is a fresh walk, just as if no walks had been handed.
    for workers in (1, 3):
        config = RaceConfig(workers=workers, seed=9)
        handed = race_factor(SEMIPRIME, config, [None] * workers)
        fresh = race_factor(SEMIPRIME, config)
        assert handed.worker_outcomes == fresh.worker_outcomes
        assert [o.walk for o in handed.worker_outcomes] == [o.walk for o in fresh.worker_outcomes]
    rng = random.Random(9)
    params = RhoParams.make(SEMIPRIME, 1, x0=rng.randrange(SEMIPRIME))
    solo = race_factor(SEMIPRIME, RaceConfig(workers=1, seed=9), [None])
    assert solo.worker_outcomes[0].walk.params == params
    assert solo.worker_outcomes == [brent_attempt(SEMIPRIME, params)]


def test_race_rejects_a_walk_list_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected 2 walks"):
        race_factor(SEMIPRIME, RaceConfig(workers=2), [None])
