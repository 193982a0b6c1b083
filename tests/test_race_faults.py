"""A seeded fault soak for the race's process layer.

Each short race at 2-3 workers meets one fault at a drawn moment, and each
must end within RACE_BOUND_S with a proper factor of n or one of the
documented errors, leaving this process with no child at all.  A fault
that needs a crew kept across races meets a factorize call of two races
instead.  A summary line per fault kind is printed with capture suspended.
"""

import os
import random
import re
import signal
import threading
import time
from collections import Counter
from contextlib import suppress

from rhorace import factorize, race, rho
from rhorace.bench import _random_prime_digits
from rhorace.race import FactorSearchExhausted, RaceConfig, race_factor
from rhorace.rho import CANCELLED, FACTOR, NO_FACTOR_CYCLE, RhoOutcome
from test_race import (
    HARD_SEMIPRIME,
    _assert_no_child,
    _CountingFork,
    _deadline,
    _ExitAfterReport,
    _gone,
)

SOAK_SEED = 20261019
RACES_PER_FAULT = 20
RACE_BOUND_S = 2.0  # from race_factor's call to its return or raise
CHILD_GONE_BOUND_S = 1.0  # from a killed caller's reaping to its children's exit
LOST = r"race worker [12] exited with code -9 without reporting"
FAILED = r"race worker [12] failed: ValueError\('planted'\)$"
EXHAUSTED = rf"no factor of \d+ found after {race.MAX_ROUNDS} round\(s\)"
EXITED = r"race worker [12] exited with code 0 without reporting"


class _KillAfterFork(_CountingFork):
    """os.fork, patched for one race: SIGKILL the victim-th child delay
    seconds after it is forked.  The timer's thread only sleeps and kills;
    a child forked while it runs never touches it."""

    def __init__(self, monkeypatch, victim, delay):
        super().__init__(monkeypatch)
        self.victim = victim
        self.delay = delay
        self.timer = None

    def __call__(self):
        pid = super().__call__()
        if pid and self.starts == self.victim:
            self.timer = threading.Timer(self.delay, self.kill, (pid,))
            self.timer.start()
        return pid

    @staticmethod
    def kill(pid):
        with suppress(ProcessLookupError):  # the race reaped it first
            os.kill(pid, signal.SIGKILL)


def _kill_child(monkeypatch, rng, workers, p):
    """A child SIGKILLed 0-5 ms after its fork."""
    killer = _KillAfterFork(monkeypatch, rng.randrange(1, workers), rng.uniform(0, 0.005))
    return RuntimeError, LOST, killer


def _child_raises(monkeypatch, rng, workers, p):
    """A child that raises at a drawn batch."""
    coordinator = os.getpid()
    victim_c = rng.randrange(1, workers) + 1  # first-round constants are 1..k
    batch = rng.randrange(0, 40)
    resume = rho.resume

    def raising(n, walk, cancel=None):
        if os.getpid() == coordinator or walk.params.c != victim_c:
            return resume(n, walk, cancel)
        polls = 0

        def counting(steps):
            nonlocal polls
            polls += 1
            if polls > batch:
                raise ValueError("planted")
            return cancel(steps)

        return resume(n, walk, counting)

    monkeypatch.setattr(rho, "resume", raising)
    return RuntimeError, FAILED, None


def _worker_0_interrupted(monkeypatch, rng, workers, p):
    """Worker 0 raising KeyboardInterrupt at a drawn poll."""
    coordinator = os.getpid()
    poll_no = rng.randrange(0, 60)
    resume = rho.resume

    def interrupted(n, walk, cancel=None):
        if os.getpid() != coordinator:
            return resume(n, walk, cancel)
        polls = 0

        def counting(steps):
            nonlocal polls
            stop = cancel(steps)
            polls += 1
            if polls > poll_no:
                raise KeyboardInterrupt
            return stop

        return resume(n, walk, counting)

    monkeypatch.setattr(rho, "resume", interrupted)
    return KeyboardInterrupt, None, None


def _stop_while_booting(monkeypatch, rng, workers, p):
    """Worker 0 finds the factor at its first poll past the mark, so the
    stop reaches children that have not taken a step.  Each child waits for
    the stop before its first step: otherwise a child forked early could
    find the factor while the caller still forks the next one, and win."""
    coordinator = os.getpid()
    resume = rho.resume

    def wins_at_the_fork(n, walk, cancel=None):
        if os.getpid() != coordinator:
            while not cancel(0):
                time.sleep(0.0005)
            return resume(n, walk, cancel)
        cancel(race.SOLO_STEPS)  # the poll at the mark forks the others
        return RhoOutcome(FACTOR, race.SOLO_STEPS, p, walk=walk)

    monkeypatch.setattr(rho, "resume", wins_at_the_fork)
    return None, None, None


def _every_walk_cycles(monkeypatch, rng, workers, p):
    """Every walk of every round, in the caller and in each child, meets
    its cycle after a drawn 0-19 batches, with no factor: each round ends
    with no winner, and the race is exhausted after MAX_ROUNDS rounds."""
    batches = rng.randrange(0, 20)
    resume = rho.resume

    def cycles(n, walk, cancel=None):
        polls = 0

        def counting(steps):
            nonlocal polls
            polls += 1
            return polls > batches or cancel(steps)

        out = resume(n, walk, counting)
        return RhoOutcome(NO_FACTOR_CYCLE, out.iterations, None, out.walk)

    monkeypatch.setattr(rho, "resume", cycles)
    return FactorSearchExhausted, EXHAUSTED, None


def _child_exits_after_report(monkeypatch, rng, workers, p):
    """A child that exits right after its first report, which only a crew
    kept for the next race can meet: a factorize call of two races."""
    _ExitAfterReport(monkeypatch, rng.randrange(1, workers))
    return RuntimeError, EXITED, None


FAULTS = {
    "kill-child": _kill_child,
    "child-raises": _child_raises,
    "worker-0-interrupted": _worker_0_interrupted,
    "stop-while-booting": _stop_while_booting,
    "every-walk-cycles": _every_walk_cycles,
    "child-exits-after-report": _child_exits_after_report,
}
MULTI_RACE = {"child-exits-after-report"}  # faults met by factorize(n * a third prime)


def test_race_soak_with_one_fault_per_race(monkeypatch, capsys):
    rng = random.Random(SOAK_SEED)
    plan = [kind for kind in FAULTS for _ in range(RACES_PER_FAULT)]
    rng.shuffle(plan)
    tally = {kind: Counter() for kind in FAULTS}
    slowest = dict.fromkeys(FAULTS, 0.0)
    with _deadline(60):
        for kind in plan:
            # Two 8-9 digit primes: a race of tens to thousands of batches.
            p = _random_prime_digits(rng, rng.choice((8, 9)))
            n = p * _random_prime_digits(rng, 9)
            workers = rng.choice((2, 3))
            with monkeypatch.context() as patch:
                patch.setattr(race, "SOLO_STEPS", 0)
                error, match, killer = FAULTS[kind](patch, rng, workers, p)
                config = RaceConfig(workers=workers, seed=rng.randrange(2**32))
                third = _random_prime_digits(rng, 9) if kind in MULTI_RACE else None
                t0 = time.perf_counter()
                try:
                    if third is None:
                        outcome = race_factor(n, config)
                    else:
                        factorize(n * third, config)
                except BaseException as exc:
                    if not isinstance(exc, error or ()) or (match and not re.fullmatch(match, str(exc))):
                        raise
                    tally[kind][type(exc).__name__] += 1
                else:
                    assert third is None, f"factorize returned despite {kind}"
                    assert kind != "every-walk-cycles", f"a race with no factor returned {outcome}"
                    assert 1 < outcome.factor < n and n % outcome.factor == 0, kind
                    if kind == "stop-while-booting":
                        assert outcome.winner == 0
                        assert all(o.kind in (CANCELLED, FACTOR) for o in outcome.worker_outcomes)
                    tally[kind]["factor"] += 1
                elapsed = time.perf_counter() - t0
                if killer is not None and killer.timer is not None:
                    killer.timer.join()
            slowest[kind] = max(slowest[kind], elapsed)
            assert elapsed < RACE_BOUND_S, f"{kind} race took {elapsed:.3f} s"
            _assert_no_child()
    with capsys.disabled():
        for kind in FAULTS:
            outcomes = ", ".join(f"{count} {name}" for name, count in sorted(tally[kind].items()))
            print(f"[soak] {kind}: {outcomes}; slowest {slowest[kind] * 1e3:.1f} ms", flush=True)


def _caller(workers, announce):
    """A forked copy of this process that races HARD_SEMIPRIME and writes
    its children's pids to the announce pipe; it never returns."""
    try:
        fork = race._Crew.fork

        def announced(self, children):
            fork(self, children)
            os.write(announce, f"{' '.join(map(str, self.procs.values()))}\n".encode())

        race._Crew.fork = announced
        race.SOLO_STEPS = 0
        race_factor(HARD_SEMIPRIME, RaceConfig(workers=workers))
    finally:
        os._exit(0)


def test_race_soak_children_outlive_no_killed_caller(capsys):
    """The caller SIGKILLed 0-5 ms after it forked its children, which are
    still booting or walking: each must read EOF on its stop pipe and exit
    by itself."""
    rng = random.Random(SOAK_SEED + 1)
    slowest = 0.0
    for _ in range(RACES_PER_FAULT):
        workers = rng.choice((2, 3))
        delay = rng.uniform(0, 0.005)
        read_end, announce = os.pipe()
        caller = os.fork() or _caller(workers, announce)
        os.close(announce)
        pids = []
        try:
            with _deadline(10), os.fdopen(read_end) as announced:
                pids = [int(pid) for pid in announced.readline().split()]
                assert len(pids) == workers - 1
                time.sleep(delay)
                os.kill(caller, signal.SIGKILL)
                os.waitpid(caller, 0)
                t0 = time.monotonic()
                while not all(_gone(pid) for pid in pids):
                    assert time.monotonic() - t0 < CHILD_GONE_BOUND_S, "a child outlived its caller"
                    time.sleep(0.001)
                slowest = max(slowest, time.monotonic() - t0)
        finally:
            for pid in pids:
                if not _gone(pid):
                    with suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            with suppress(ProcessLookupError):
                os.kill(caller, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(caller, 0)
        _assert_no_child()
    with capsys.disabled():
        print(
            f"[soak] caller-killed: {RACES_PER_FAULT} races, every child gone "
            f"{slowest * 1e3:.1f} ms after its caller at most",
            flush=True,
        )
