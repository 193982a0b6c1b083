"""First-factor-wins races: the same n attacked with distinct constants.

Different c values give independent pseudo-random orbits, so their collision
times are independent draws; racing k of them and keeping the first factor
collects the minimum.  Worker 0 runs in the calling process and workers
1..k-1 are forked OS processes (CPython threads cannot run big-int
arithmetic in parallel).  Forking a child costs a few milliseconds before
its first step, more than many races take, so worker 0 first walks
SOLO_STEPS steps alone: a race it wins by then forks nothing, and a longer
one forks the k-1 children at that mark while worker 0 walks on without a
restart.  Once they exist, a child that finds a factor or raises sets a
shared event that every child polls once per gcd batch, which cancels the
rest.  Worker 0 polls once per batch too, but watches the children's
reports and exit sentinels instead, so it also stops for a child that died
without reporting; when it finds a factor itself, it sets the event.

race_factor derives each round's RhoParams from its RaceConfig: the
constants 1, 2, 3, ... in the first round, seeded draws after that.
_run_round races any list of RhoParams it is given, one per worker.

A race with workers=1 runs inline in the calling process and is byte-for-byte
a direct call of the configured detector, which keeps single-worker runs
reproducible.  The default detector is Brent's (rho.brent_attempt): it finds
a factor with fewer modular multiplications than Floyd's pairing, which
stays available as detector="floyd".
"""

from __future__ import annotations

import multiprocessing
import os
import random
import select
import time
from dataclasses import dataclass
from multiprocessing.connection import wait

from . import rho
from .rho import RhoOutcome, RhoParams

_FORK = multiprocessing.get_context("fork")

DETECTORS = {"floyd": rho.rho_attempt, "brent": rho.brent_attempt}
DEFAULT_MAX_ROUNDS = 16
# Worker 0 walks this many steps alone before workers 1..k-1 are forked:
# 64 batches of 128, about 4 ms of Brent steps on a 21-digit n, a little
# above the 2-3.5 ms a forked child takes from fork() to its first step.
SOLO_STEPS = 8192
_ERROR = "error"


class FactorSearchExhausted(Exception):
    """Every worker of every retry round failed to produce a factor."""

    def __init__(self, n: int, rounds: int):
        super().__init__(f"no factor of {n} found after {rounds} round(s)")
        self.n = n
        self.rounds = rounds


@dataclass
class RaceConfig:
    """Knobs for race_factor.  workers=0 means the detected core count.

    The first round uses the constants 1, 2, 3, ... (assign_c); retry
    rounds draw fresh constants from a generator seeded with seed,
    excluding every c used so far, and every round draws its start values
    from that generator.  max_iters=None sizes the budget from n at attempt
    time.
    """

    workers: int = 0
    seed: int = 0
    max_iters: int | None = None
    gcd_batch: int = rho.DEFAULT_GCD_BATCH
    detector: str = "brent"
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def resolved_workers(self) -> int:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        return self.workers if self.workers else (os.cpu_count() or 1)


@dataclass
class RaceOutcome:
    """The winning factor plus per-worker accounting for the final round."""

    factor: int
    winner: int
    wall_time_s: float
    rounds: int
    worker_outcomes: list[RhoOutcome]

    @property
    def per_worker_iterations(self) -> list[int]:
        """Iterations each worker of the final round ran, by worker index."""
        return [o.iterations for o in self.worker_outcomes]


def assign_c(workers: int, n: int) -> list[int]:
    """The first round's constants: 1, 2, 3, ... as residues mod n.

    The walk skips the banned residues 0 and n-2 (degenerate polynomials).
    There are exactly n-2 usable residues, so more workers than that is an
    error.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    if workers > n - 2:
        raise ValueError(f"only {n - 2} usable constants exist mod {n}")
    banned = {0, (n - 2) % n}
    out: list[int] = []
    c = 1
    while len(out) < workers:
        if c not in banned:
            out.append(c)
        c += 1
    return out


class _ConstantsExhausted(Exception):
    """No unused residues left to draw; the race gives up early."""


def _draw_distinct_c(rng: random.Random, n: int, count: int, used: set[int]) -> list[int]:
    banned = {0, (n - 2) % n}
    out: list[int] = []
    taken = banned | used
    if count > n - len(taken):
        raise _ConstantsExhausted
    while len(out) < count:
        c = rng.randrange(1, n)
        if c in taken:
            continue
        taken.add(c)
        out.append(c)
    return out


def _worker_main(idx, n, params, detector, cancel, queue):
    attempt = DETECTORS[detector]
    try:
        out = attempt(n, params, cancel)
    except Exception as exc:  # report instead of hanging the coordinator
        cancel.set()
        queue.put((idx, _ERROR, 0, None, repr(exc)))
        return
    if out.found:
        cancel.set()
    queue.put((idx, out.kind, out.iterations, out.factor, None))


class _Round:
    """One multi-worker round, seen from the caller, which runs worker 0.

    Worker 0 is handed this object as both its cancel event and its report
    queue.  Until worker 0 has walked SOLO_STEPS steps nothing else exists:
    its poll only counts steps, and a worker 0 that ends before the mark
    reports here directly.  The poll at the mark forks workers 1..k-1 with
    a shared event and queue.  From then on the poll is one select over
    the queue's reader and the children's sentinels: worker 0 stops once
    a child reports a factor or an error, or exits without reporting.  It
    needs no read of the event: a child sets that only just before it
    reports a factor or an error.
    """

    def __init__(self, n, params_list, detector):
        self.n = n
        self.params_list = params_list
        self.detector = detector
        self.solo_steps = 0
        self.cancel = None  # the shared event and queue, made at the fork
        self.queue = None
        self.reader = None
        self.procs = {}
        self.running = {}  # child sentinel -> index, until seen to exit
        self.results: dict[int, RhoOutcome] = {}
        self.errors: list[tuple[int, str]] = []
        self.winner = None

    def is_set(self):
        """Worker 0's poll, once per gcd batch."""
        if self.cancel is None:
            # Worker 0 polls before each batch, and every batch but a
            # budget's last one is gcd_batch steps long.
            if self.solo_steps < SOLO_STEPS:
                self.solo_steps += self.params_list[0].gcd_batch
                return False
            self.fork()
        ready, _, _ = select.select([self.reader, *self.running], [], [], 0)
        if not ready:
            return False
        lost = self._lost(ready)
        return lost is not None or self.winner is not None or bool(self.errors)

    def set(self):
        if self.cancel is not None:
            self.cancel.set()

    def put(self, report):
        idx, kind, iters, factor, err = report
        self.results[idx] = RhoOutcome(kind, iters, factor)
        if err is not None:
            self.errors.append((idx, err))
        elif kind == rho.FACTOR and self.winner is None:
            self.winner = idx

    def fork(self):
        """Start workers 1..k-1; a no-op once they are started."""
        if self.cancel is not None:
            return
        self.cancel = _FORK.Event()
        self.queue = _FORK.SimpleQueue()
        self.reader = self.queue._reader  # waitable alongside the sentinels
        for i, params in enumerate(self.params_list[1:], start=1):
            p = _FORK.Process(
                target=_worker_main,
                args=(i, self.n, params, self.detector, self.cancel, self.queue),
                daemon=True,
            )
            self.procs[i] = p
            p.start()
            self.running[p.sentinel] = i

    def _lost(self, ready):
        """Read every pending report, then return the index of a child
        whose sentinel is in ready and that left no report, or None.

        A child writes its report before it exits, so a child that has
        exited is lost only if the reader holds nothing more from it.
        Children that did report are forgotten.
        """
        while self.reader.poll():
            self.put(self.queue.get())
        for sentinel in ready:
            if sentinel is self.reader:
                continue
            idx = self.running[sentinel]
            if idx not in self.results:
                return idx
            del self.running[sentinel]
        return None

    def collect(self):
        """Wait for every child's report; a child lost fails the round."""
        while len(self.results) < len(self.params_list):
            idx = self._lost(wait([self.reader, *self.running]))
            if idx is not None:
                self.procs[idx].join()
                raise RuntimeError(
                    f"race worker {idx} exited with code "
                    f"{self.procs[idx].exitcode} without reporting"
                )

    def close(self):
        """Terminate children still alive and join all of them."""
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            if p.pid is not None:
                p.join()
        if self.queue is not None:
            self.queue.close()


def _run_round(n, params_list, detector):
    """Race params_list[i] as worker i: 0 here, 1..k-1 in forked children.

    Returns (outcomes by worker index, index of the first worker whose
    factor was reported, or None).  If worker 0 finds a factor within its
    SOLO_STEPS head start, no child is forked and every other outcome is
    RhoOutcome(CANCELLED, 0); if it fails within it, the others are forked
    then.  Once children exist, a worker that finds a factor or raises
    stops the others at their next batch boundary: the children poll the
    cancel event it sets, worker 0 the reports.  A worker that raises, or a
    child that exits without reporting, fails the round with RuntimeError.
    On every way out, errors and KeyboardInterrupt included, children still
    alive are terminated and all are joined, so no worker computation
    survives this call.
    """
    this_round = _Round(n, params_list, detector)
    try:
        _worker_main(0, n, params_list[0], detector, this_round, this_round)
        if this_round.results[0].kind != _ERROR:
            if this_round.winner is None:
                this_round.fork()
            if this_round.procs:
                this_round.collect()
        if this_round.errors:
            raise RuntimeError(f"race worker(s) failed: {this_round.errors}")
        unforked = RhoOutcome(rho.CANCELLED, 0)
        outcomes = [this_round.results.get(i, unforked) for i in range(len(params_list))]
        return outcomes, this_round.winner
    finally:
        this_round.close()


def race_factor(n: int, config: RaceConfig | None = None) -> RaceOutcome:
    """Find one nontrivial factor of n by racing workers, first factor wins.

    n must be an odd composite; the pipeline guarantees on top of that that
    n has no prime factor under the pre-pass limit, but the race itself only
    checks what it can cheaply.  Rounds retry with fresh constants until a
    factor appears or config.max_rounds rounds have failed, which raises
    FactorSearchExhausted.
    """
    config = config or RaceConfig()
    if n < 3 or n % 2 == 0:
        raise ValueError(f"race expects an odd n >= 3, got {n}")
    workers = config.resolved_workers()
    if config.detector not in DETECTORS:
        raise ValueError(f"unknown detector {config.detector!r}")
    if config.max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    attempt = DETECTORS[config.detector]
    rng = random.Random(config.seed)
    used: set[int] = set()
    start = time.perf_counter()
    for round_no in range(config.max_rounds):
        if round_no == 0:
            cs = assign_c(workers, n)
        else:
            try:
                cs = _draw_distinct_c(rng, n, workers, used)
            except _ConstantsExhausted:
                raise FactorSearchExhausted(n, round_no) from None
        used.update(cs)
        x0s = [rng.randrange(n) for _ in range(workers)]
        params_list = [
            RhoParams.make(n, c, x0, config.max_iters, config.gcd_batch)
            for c, x0 in zip(cs, x0s)
        ]
        if workers == 1:
            outcome = attempt(n, params_list[0], None)
            outcomes = [outcome]
            winner = 0 if outcome.found else None
        else:
            outcomes, winner = _run_round(n, params_list, config.detector)
        if winner is not None:
            return RaceOutcome(
                factor=outcomes[winner].factor,
                winner=winner,
                wall_time_s=time.perf_counter() - start,
                rounds=round_no + 1,
                worker_outcomes=outcomes,
            )
    raise FactorSearchExhausted(n, config.max_rounds)
