"""Race coordination tests: constant assignment, winner claim, retries."""

import multiprocessing
import os
import random
import signal
import time
from contextlib import contextmanager

import pytest

from rhorace import race
from rhorace.bench import _random_prime_digits
from rhorace.race import (
    FactorSearchExhausted,
    RaceConfig,
    RaceOutcome,
    assign_c,
    race_factor,
)
from rhorace.rho import CANCELLED, FACTOR, NO_FACTOR_CYCLE, RhoOutcome, RhoParams, rho_attempt

SEMIPRIME = 1000003 * 1000033  # both factors just beyond the pre-pass limit


def test_assign_c_sequential_rule():
    assert assign_c(4, 8051) == [1, 2, 3, 4]
    assert assign_c(1, 8051) == [1]


def test_assign_c_skips_banned_residues():
    # mod 5 the banned residues are 0 and 3 (= n-2), so 3 is skipped.
    assert assign_c(3, 5) == [1, 2, 4]
    # mod 3 the banned residues are 0 and 1.
    assert assign_c(1, 3) == [2]


def test_draw_distinct_c_is_seeded_and_valid():
    n = 10**50 + 151
    first = race._draw_distinct_c(random.Random(42), n, 2, set())
    again = race._draw_distinct_c(random.Random(42), n, 2, set())
    other = race._draw_distinct_c(random.Random(43), n, 2, set())
    assert first == again
    assert len(set(first)) == 2
    assert first != other  # overwhelmingly likely for a 50-digit modulus
    for c in first:
        assert 0 < c < n
        assert c not in (0, n - 2)


def test_assign_c_exhausts_residues():
    # n=5 has exactly three usable residues; a fourth worker cannot exist.
    with pytest.raises(ValueError):
        assign_c(4, 5)
    with pytest.raises(ValueError):
        assign_c(0, 8051)
    with pytest.raises(ValueError):
        assign_c(1, 2)


@pytest.mark.parametrize("detector", race.DETECTORS)
def test_single_worker_race_is_a_direct_attempt(detector):
    # workers=1 runs inline; the outcome must be byte-identical to calling
    # the detector with the same derived parameters.
    config = RaceConfig(workers=1, seed=9, detector=detector)
    outcome = race_factor(8051, config)
    rng = random.Random(9)
    x0 = rng.randrange(8051)
    direct = race.DETECTORS[detector](8051, RhoParams.make(8051, c=1, x0=x0))
    assert direct.found
    assert outcome.factor == direct.factor
    assert outcome.per_worker_iterations == [direct.iterations]
    assert outcome.winner == 0
    assert outcome.rounds == 1
    assert outcome.worker_outcomes == [direct]


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
    assert outcome.wall_time_s > 0
    assert multiprocessing.active_children() == []


def test_race_factor_valid_across_schedules():
    # Scheduling may hand the win to any worker; the factor must divide n
    # every single time.
    for seed in range(20):
        outcome = race_factor(8051, RaceConfig(workers=2, seed=seed))
        assert 8051 % outcome.factor == 0
        assert outcome.factor in (83, 97)


def test_race_explicit_constants_and_starts():
    params = RhoParams.make(8051, c=1, x0=2, gcd_batch=1)
    outcomes, winner = race._run_round(8051, [params], "floyd")
    assert winner == 0
    assert outcomes == [RhoOutcome(FACTOR, 3, 97)]


def test_race_rejects_bad_inputs():
    with pytest.raises(ValueError):
        race_factor(10, RaceConfig(workers=1))
    with pytest.raises(ValueError):
        race_factor(1, RaceConfig(workers=1))
    with pytest.raises(ValueError):
        race_factor(8051, RaceConfig(workers=1, detector="nope"))
    with pytest.raises(ValueError):
        race_factor(8051, RaceConfig(workers=1, max_rounds=0))


def test_race_retries_with_fresh_constants():
    # A budget too small for round one but workable for some later draw:
    # found by scanning seeds once, then frozen.  workers=1 keeps it exact.
    for detector, seed in (("floyd", 1), ("brent", 39)):
        config = RaceConfig(workers=1, seed=seed, max_iters=64, gcd_batch=16, detector=detector)
        outcome = race_factor(SEMIPRIME, config)
        assert outcome.rounds > 1
        assert SEMIPRIME % outcome.factor == 0


def test_race_exhaustion_raises():
    config = RaceConfig(workers=1, seed=0, max_iters=8, gcd_batch=8, max_rounds=4)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(SEMIPRIME, config)
    assert exc_info.value.n == SEMIPRIME
    assert exc_info.value.rounds == 4


def test_race_exhaustion_when_constants_run_out(monkeypatch):
    # n=5 offers three usable residues (1, 2, 4): one round each, then no
    # fresh constant is left for a fourth round.
    def never_finds(n, params, cancel):
        return RhoOutcome(NO_FACTOR_CYCLE, 1)

    monkeypatch.setitem(race.DETECTORS, "never_finds", never_finds)
    config = RaceConfig(workers=1, detector="never_finds", max_rounds=16)
    with pytest.raises(FactorSearchExhausted) as exc_info:
        race_factor(5, config)
    assert exc_info.value.rounds == 3


def test_race_brent_detector():
    outcome = race_factor(SEMIPRIME, RaceConfig(workers=1, seed=2, detector="brent"))
    assert SEMIPRIME % outcome.factor == 0
    assert 1 < outcome.factor < SEMIPRIME


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs past seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _CountingFork:
    """The fork context, counting Process.start calls."""

    def __init__(self, real):
        self._real = real
        self.starts = 0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Process(self, *args, **kwargs):
        proc = self._real.Process(*args, **kwargs)
        start = proc.start

        def counted_start():
            self.starts += 1
            start()

        proc.start = counted_start
        return proc


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_race_forks_one_process_fewer_than_workers(monkeypatch, workers):
    counting = _CountingFork(race._FORK)
    monkeypatch.setattr(race, "_FORK", counting)
    outcome = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert SEMIPRIME % outcome.factor == 0
    assert len(outcome.worker_outcomes) == workers
    assert counting.starts == (workers - 1) * outcome.rounds
    assert multiprocessing.active_children() == []


def test_race_child_winner_cancels_the_coordinator():
    """Criterion 8 with the planted winner in a forked child, worker 1.

    Worker 0 runs in this process; the child's factor must stop it at a
    batch boundary, not at its budget.
    """
    rng = random.Random(20260814)
    p = _random_prime_digits(rng, 12)
    r = _random_prime_digits(rng, 100)
    n = p * r**15  # ~1500 digits: one iteration costs ~0.2-0.3 ms
    batch = 16
    budget = 1_000_000
    params_list = [
        RhoParams.make(n, c, x0=0, max_iters=budget, gcd_batch=batch) for c in (1, 2 * p, 2)
    ]
    with _deadline(20):
        outcomes, winner = race._run_round(n, params_list, "floyd")
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
    assert multiprocessing.active_children() == []


def test_race_fails_fast_when_a_child_dies_silently(monkeypatch):
    coordinator = os.getpid()

    def exit_in_child(n, params, cancel):
        if os.getpid() != coordinator:
            os._exit(3)
        return rho_attempt(n, params, cancel)

    monkeypatch.setitem(race.DETECTORS, "exit_in_child", exit_in_child)
    config = RaceConfig(workers=3, seed=1, detector="exit_in_child")
    with _deadline(5), pytest.raises(RuntimeError, match=r"race worker [12] exited with code 3"):
        race_factor(SEMIPRIME, config)
    assert multiprocessing.active_children() == []


def test_race_leaves_no_child_when_the_coordinator_is_interrupted(monkeypatch):
    coordinator = os.getpid()

    def interrupted_here(n, params, cancel):
        if os.getpid() == coordinator:
            raise KeyboardInterrupt
        time.sleep(60)  # a child that would outlive the round on its own
        return rho_attempt(n, params, cancel)

    monkeypatch.setitem(race.DETECTORS, "interrupted_here", interrupted_here)
    with _deadline(5), pytest.raises(KeyboardInterrupt):
        race_factor(SEMIPRIME, RaceConfig(workers=3, seed=1, detector="interrupted_here"))
    assert multiprocessing.active_children() == []
