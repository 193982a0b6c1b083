"""Race coordination tests: constant assignment, winner claim, retries."""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

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
from rhorace.rho import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    FACTOR,
    NO_FACTOR_CYCLE,
    RhoOutcome,
    RhoParams,
    brent_attempt,
    rho_attempt,
)
from test_rho import _CancelAfter

SEMIPRIME = 1000003 * 1000033  # both factors just beyond the pre-pass limit
# 10 x 11 digits: Brent's walk with c=1 takes ~238k steps, far past the mark.
LONG_SEMIPRIME = 5063259979 * 94887001943
# 16 x 16 digits: the default budget is hours of Brent steps.
HARD_SEMIPRIME = 1000000000000037 * 3000000000000037


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


def test_race_retries_with_fresh_constants():
    # A budget too small for round one but workable for some later draw:
    # found by scanning seeds once, then frozen.  workers=1 keeps it exact.
    for detector, seed in (("floyd", 1), ("brent", 39)):
        config = RaceConfig(workers=1, seed=seed, max_iters=64, gcd_batch=16, detector=detector)
        outcome = race_factor(SEMIPRIME, config)
        assert outcome.rounds > 1
        assert SEMIPRIME % outcome.factor == 0


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
    def never_finds(n, params, cancel):
        return RhoOutcome(NO_FACTOR_CYCLE, 1)

    monkeypatch.setitem(race.DETECTORS, "never_finds", never_finds)
    monkeypatch.setattr(race, "MAX_ROUNDS", 16)
    config = RaceConfig(workers=1, detector="never_finds")
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
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    counting = _CountingFork(race._FORK)
    monkeypatch.setattr(race, "_FORK", counting)
    outcome = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert SEMIPRIME % outcome.factor == 0
    assert len(outcome.worker_outcomes) == workers
    assert counting.starts == (workers - 1) * outcome.rounds
    assert multiprocessing.active_children() == []


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
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
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
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()

    def interrupted_here(n, params, cancel):
        if os.getpid() == coordinator:
            cancel(race.SOLO_STEPS)  # worker 0's poll at the mark forks the children
            raise KeyboardInterrupt
        time.sleep(60)  # a child that would outlive the round on its own
        return rho_attempt(n, params, cancel)

    monkeypatch.setitem(race.DETECTORS, "interrupted_here", interrupted_here)
    with _deadline(5), pytest.raises(KeyboardInterrupt):
        race_factor(SEMIPRIME, RaceConfig(workers=3, seed=1, detector="interrupted_here"))
    assert multiprocessing.active_children() == []


def test_race_fails_fast_when_a_child_dies_during_worker_0s_walk(monkeypatch):
    # Worker 0 alone would walk for hours: its own poll must see the child die.
    coordinator = os.getpid()

    def exit_in_child(n, params, cancel):
        if os.getpid() != coordinator:
            os._exit(3)
        return brent_attempt(n, params, cancel)

    monkeypatch.setitem(race.DETECTORS, "exit_in_child", exit_in_child)
    config = RaceConfig(workers=2, seed=1, detector="exit_in_child")
    with _deadline(1), pytest.raises(RuntimeError, match=r"race worker 1 exited with code 3"):
        race_factor(HARD_SEMIPRIME, config)
    assert multiprocessing.active_children() == []


def test_race_reports_a_child_lost_after_the_stop_was_sent(monkeypatch):
    # Worker 0 wins in its first batch and sends the stop; the children exit
    # with it unread, which resets their pipes rather than closing them.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    coordinator = os.getpid()
    rng = random.Random(20261019)
    p = _random_prime_digits(rng, 12)
    n = p * _random_prime_digits(rng, 30)

    def exit_late_in_child(n, params, cancel):
        if os.getpid() != coordinator:
            time.sleep(0.3)
            os._exit(3)
        return rho_attempt(n, params, cancel)

    monkeypatch.setitem(race.DETECTORS, "exit_late_in_child", exit_late_in_child)
    params_list = [RhoParams.make(n, c, x0=0, gcd_batch=16) for c in (2 * p, 1, 2)]
    lost = r"race worker [12] exited with code 3 without reporting"
    with _deadline(5), pytest.raises(RuntimeError, match=lost):
        race._run_round(n, params_list, "exit_late_in_child")
    assert multiprocessing.active_children() == []


_ANNOUNCE_CHILDREN = f"""
import multiprocessing
from rhorace import RaceConfig, factorize, race

fork = race._Round.fork

def announce(self):
    fork(self)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)

race._Round.fork = announce
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
        (1, True, 2, RuntimeError, r"race worker\(s\) failed: \[\(1, "),
    ],
    ids=["worker-0-at-once", "worker-0-after-the-fork", "child"],
)
def test_race_fails_fast_when_a_worker_raises(
    monkeypatch, raiser, past_the_mark, forks, error, match
):
    # The others would walk for hours; the error must end the round at once.
    # Worker 0 runs in the caller, so its own exception propagates as it is.
    def raises_in_one_worker(n, params, cancel):
        if params.c != raiser + 1:  # first-round constants are 1, 2, 3
            return brent_attempt(n, params, cancel)
        if past_the_mark:
            brent_attempt(n, replace(params, max_iters=race.SOLO_STEPS + params.gcd_batch), cancel)
        raise ValueError("planted")

    counting = _CountingFork(race._FORK)
    monkeypatch.setattr(race, "_FORK", counting)
    monkeypatch.setitem(race.DETECTORS, "raises", raises_in_one_worker)
    config = RaceConfig(workers=3, seed=1, detector="raises")
    with _deadline(1), pytest.raises(error, match=match):
        race_factor(HARD_SEMIPRIME, config)
    assert counting.starts == forks
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_race_forks_only_once_worker_0_passes_the_mark(monkeypatch, workers):
    counting = _CountingFork(race._FORK)
    monkeypatch.setattr(race, "_FORK", counting)
    short = race_factor(SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert (short.winner, counting.starts) == (0, 0)
    assert short.worker_outcomes[1:] == [RhoOutcome(CANCELLED, 0)] * (workers - 1)
    long = race_factor(LONG_SEMIPRIME, RaceConfig(workers=workers, seed=6))
    assert long.factor in (5063259979, 94887001943)
    assert len(long.worker_outcomes) == workers
    assert counting.starts == (workers - 1) * long.rounds
    assert multiprocessing.active_children() == []


def test_race_worker_0_walks_on_through_the_fork(monkeypatch):
    # Worker 0 wins before the mark on SEMIPRIME and past it on
    # LONG_SEMIPRIME, whose children have a one-step budget: they report
    # and exit at once, which must neither stop worker 0 nor restart it.
    counting = _CountingFork(race._FORK)
    monkeypatch.setattr(race, "_FORK", counting)
    for n, forks in ((SEMIPRIME, 0), (LONG_SEMIPRIME, 2)):
        params_list = [RhoParams.make(n, 1, x0=5)]
        params_list += [RhoParams.make(n, c, x0=5, max_iters=1) for c in (2, 3)]
        outcomes, winner = race._run_round(n, params_list, "brent")
        assert winner == 0
        assert outcomes[0] == brent_attempt(n, params_list[0])
        assert counting.starts == forks
    assert outcomes[1:] == [RhoOutcome(BUDGET_EXHAUSTED, 1)] * 2
    assert multiprocessing.active_children() == []


def test_race_forks_the_others_when_worker_0_fails_before_the_mark(monkeypatch):
    counting = _CountingFork(race._FORK)
    monkeypatch.setattr(race, "_FORK", counting)
    params_list = [
        RhoParams.make(SEMIPRIME, 1, x0=5, max_iters=128),
        RhoParams.make(SEMIPRIME, 2, x0=5),
    ]
    outcomes, winner = race._run_round(SEMIPRIME, params_list, "brent")
    assert counting.starts == 1
    assert winner == 1
    assert outcomes == [RhoOutcome(BUDGET_EXHAUSTED, 128), brent_attempt(SEMIPRIME, params_list[1])]
    assert multiprocessing.active_children() == []


def _record_forks(monkeypatch):
    """The steps worker 0 reported at the poll that forked, one per round."""
    seen = []
    poll = race._Round.poll

    def recording(self, steps):
        forked = self.forked
        out = poll(self, steps)
        if not forked and self.forked:
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
    attempt = race.DETECTORS[detector]
    params_list = [
        RhoParams.make(HARD_SEMIPRIME, 1, x0=5, max_iters=254 + 56 * 128),
        RhoParams.make(HARD_SEMIPRIME, 2, x0=5, max_iters=1),
    ]
    outcomes, winner = race._run_round(HARD_SEMIPRIME, params_list, detector)
    assert winner is None
    assert seen == [fork_at]
    assert outcomes[0] == attempt(HARD_SEMIPRIME, params_list[0])
    # A resumed walk counts only the steps it walks in this race: past
    # phase r = 64 its batches are whole, so it forks at the mark itself.
    # (walked=0 hands it a whole budget again.)
    walk = outcomes[0].walk
    outcomes, winner = race._run_round(HARD_SEMIPRIME, [replace(walk, walked=0), params_list[1]], detector)
    assert seen == [fork_at, race.SOLO_STEPS]
    assert outcomes[0].iterations == 254 + 56 * 128
    assert multiprocessing.active_children() == []


def test_race_resumes_each_worker_and_reports_its_end_state(monkeypatch):
    # Two walks of a first race on n, reduced mod a cofactor m, race m
    # again; every worker is forked at once, so both walk in both races.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    p = 5063259979
    n = p * LONG_SEMIPRIME
    config = RaceConfig(workers=2, seed=6)
    first = race_factor(n, config)
    assert multiprocessing.active_children() == []
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
    assert multiprocessing.active_children() == []


def test_race_ends_a_walk_whose_lifetime_budget_runs_out_mid_race(monkeypatch):
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    tired = brent_attempt(LONG_SEMIPRIME, RhoParams.make(LONG_SEMIPRIME, 2, x0=5), _CancelAfter(20))
    assert tired.kind == CANCELLED
    budget = tired.walk.params.max_iters
    tired_walk = replace(tired.walk, walked=budget - 512)
    winner_walk = RhoParams.make(LONG_SEMIPRIME, 1, x0=5)
    outcomes, winner = race._run_round(LONG_SEMIPRIME, [winner_walk, tired_walk], "brent")
    assert winner == 0
    assert outcomes[1] == RhoOutcome(BUDGET_EXHAUSTED, 512)
    assert outcomes[1].walk.walked == budget
    assert multiprocessing.active_children() == []


def test_unforked_worker_keeps_the_walk_it_was_handed():
    walk = brent_attempt(SEMIPRIME, RhoParams.make(SEMIPRIME, 2, x0=5), _CancelAfter(3)).walk
    outcomes, winner = race._run_round(SEMIPRIME, [RhoParams.make(SEMIPRIME, 1, x0=5), walk], "brent")
    assert winner == 0
    assert outcomes[1] == RhoOutcome(CANCELLED, 0)
    assert outcomes[1].walk == walk


def test_walks_over_carries_only_walks_that_can_go_on():
    n = 1000003 * 1000033 * 1000037
    m = n // 1000003

    def walk(c):
        return brent_attempt(n, RhoParams.make(n, c, x0=7), _CancelAfter(2)).walk

    outcomes = [
        RhoOutcome(FACTOR, 9, 1000003, walk(1)),
        RhoOutcome(CANCELLED, 8, None, walk(2)),
        RhoOutcome(CANCELLED, 0),  # never forked, handed no walk
        RhoOutcome(NO_FACTOR_CYCLE, 8, None, walk(3)),
        RhoOutcome(BUDGET_EXHAUSTED, 8, None, walk(4)),
        RhoOutcome(CANCELLED, 8, None, walk(m - 2)),  # c = -2 mod m
    ]
    won = RaceOutcome(1000003, 0, 0.1, 1, outcomes)
    assert won.walks_over(m) == [walk(1).over(m), walk(2).over(m), None, None, None, None]
    lost = RaceOutcome(1000003, 1, 0.1, 1, outcomes[2:])
    assert lost.walks_over(m) is None


def test_race_draws_fresh_constants_for_a_worker_handed_no_walk():
    # As a retry round draws them: seeded, not the first round's 1, 2, 3.
    config = RaceConfig(workers=1, seed=9)
    outcome = race_factor(SEMIPRIME, config, [None])
    rng = random.Random(9)
    (c,) = race._draw_distinct_c(rng, SEMIPRIME, 1, set())
    params = RhoParams.make(SEMIPRIME, c, x0=rng.randrange(SEMIPRIME))
    assert outcome.worker_outcomes[0].walk.params == params
    assert outcome.worker_outcomes == [brent_attempt(SEMIPRIME, params)]


def test_race_rejects_a_walk_list_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected 2 walks"):
        race_factor(SEMIPRIME, RaceConfig(workers=2), [None])
