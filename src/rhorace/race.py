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
constants 1, 2, 3, ... in the first round, seeded draws after that.  It
can instead be handed one walk per worker to resume (RaceOutcome.walks_over
gives them for a cofactor of the last race's n); a worker handed none draws
fresh constants.  _run_round races any list of walks and RhoParams it is
given, one per worker: worker 0 resumes its walk in the caller, a child is
handed its walk when it is forked, and every worker's outcome, the
cancelled ones included, carries the walk it ended in.

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
from .rho import RhoOutcome, RhoParams, Walk

_FORK = multiprocessing.get_context("fork")

DETECTORS = {"floyd": rho.rho_attempt, "brent": rho.brent_attempt}
DEFAULT_MAX_ROUNDS = 16
# Worker 0 walks this many steps alone before workers 1..k-1 are forked:
# 52 batches of 128, about 3.3 ms of Brent steps on a 21-digit n, about
# the 2-3.5 ms a forked child takes from fork() to its first step.  The
# fork comes at worker 0's first batch boundary at or past the mark: step
# 6656 for Floyd, 6782 for a fresh Brent walk, whose first 14 batches
# (phases r = 1..64) are shorter than 128 steps.
SOLO_STEPS = 6656
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

    def walks_over(self, m: int) -> list[Walk | None] | None:
        """Each worker's walk reduced mod m, a divisor of n, to race m with.

        A walk goes on if it found the factor or was cancelled, both at a
        batch boundary, or was never forked and keeps the walk it was
        handed.  None stands for a walk that met its cycle or spent its
        budget, or whose c reduces to 0 or -2 mod m: that worker draws
        fresh constants.  Returns None when no walk goes on.
        """
        walks = [
            o.walk.over(m) if o.walk is not None and o.kind in (rho.FACTOR, rho.CANCELLED) else None
            for o in self.worker_outcomes
        ]
        return walks if any(w is not None for w in walks) else None


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


def _walk(n, start, detector, cancel):
    """One worker's walk: resume a Walk, or start the detector from RhoParams."""
    if isinstance(start, Walk):
        return rho.resume(n, start, cancel)
    return DETECTORS[detector](n, start, cancel)


def _worker_main(idx, n, start, detector, cancel, queue):
    try:
        out = _walk(n, start, detector, cancel)
    except Exception as exc:  # report instead of hanging the coordinator
        cancel.set()
        queue.put((idx, RhoOutcome(_ERROR, 0), repr(exc)))
        return
    if out.found:
        cancel.set()
    queue.put((idx, out, None))


class _Round:
    """One multi-worker round, seen from the caller, which runs worker 0.

    Worker 0 is handed this object as both its cancel event and its report
    queue.  Until worker 0 has walked SOLO_STEPS steps in this race nothing
    else exists: its poll only compares the steps the driver reports, and
    a worker 0 that ends before the mark reports here directly.  The poll
    at the mark forks workers 1..k-1 with a shared event and queue, each
    handed its walk.  From then on the poll is one select over
    the queue's reader and the children's sentinels: worker 0 stops once
    a child reports a factor or an error, or exits without reporting.  It
    needs no read of the event: a child sets that only just before it
    reports a factor or an error.
    """

    def __init__(self, n, starts, detector):
        self.n = n
        self.starts = starts
        self.detector = detector
        self.cancel = None  # the shared event and queue, made at the fork
        self.queue = None
        self.reader = None
        self.procs = {}
        self.running = {}  # child sentinel -> index, until seen to exit
        self.results: dict[int, RhoOutcome] = {}
        self.errors: list[tuple[int, str]] = []
        self.winner = None

    def poll(self, steps):
        """Worker 0's poll, before each gcd batch; steps is what it has
        walked in this race so far."""
        if self.cancel is None:
            if steps < SOLO_STEPS:
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
        idx, out, err = report
        self.results[idx] = out
        if err is not None:
            self.errors.append((idx, err))
        elif out.found and self.winner is None:
            self.winner = idx

    def fork(self):
        """Start workers 1..k-1; a no-op once they are started."""
        if self.cancel is not None:
            return
        self.cancel = _FORK.Event()
        self.queue = _FORK.SimpleQueue()
        self.reader = self.queue._reader  # waitable alongside the sentinels
        for i, start in enumerate(self.starts[1:], start=1):
            p = _FORK.Process(
                target=_worker_main,
                args=(i, self.n, start, self.detector, self.cancel, self.queue),
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
        while len(self.results) < len(self.starts):
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


def _run_round(n, starts, detector):
    """Race starts[i] as worker i: 0 here, 1..k-1 in forked children.

    A start is a Walk to resume or the RhoParams of a fresh walk.  Returns
    (outcomes by worker index, index of the first worker whose factor was
    reported, or None); each outcome's walk is where that worker stopped.
    If worker 0 finds a factor within its SOLO_STEPS head start, no child is
    forked and every other outcome is RhoOutcome(CANCELLED, 0) carrying the
    Walk it was handed, if any; if it fails within it, the others are
    forked then.  Once children exist, a worker that finds a factor or raises
    stops the others at their next batch boundary: the children poll the
    cancel event it sets, worker 0 the reports.  A worker that raises, or a
    child that exits without reporting, fails the round with RuntimeError.
    On every way out, errors and KeyboardInterrupt included, children still
    alive are terminated and all are joined, so no worker computation
    survives this call.
    """
    this_round = _Round(n, starts, detector)
    try:
        _worker_main(0, n, starts[0], detector, this_round, this_round)
        if this_round.results[0].kind != _ERROR:
            if this_round.winner is None:
                this_round.fork()
            if this_round.procs:
                this_round.collect()
        if this_round.errors:
            raise RuntimeError(f"race worker(s) failed: {this_round.errors}")
        outcomes = [
            this_round.results.get(i)
            or RhoOutcome(rho.CANCELLED, 0, walk=start if isinstance(start, Walk) else None)
            for i, start in enumerate(starts)
        ]
        return outcomes, this_round.winner
    finally:
        this_round.close()


def race_factor(
    n: int, config: RaceConfig | None = None, walks: list[Walk | None] | None = None
) -> RaceOutcome:
    """Find one nontrivial factor of n by racing workers, first factor wins.

    n must be an odd composite; the pipeline guarantees on top of that that
    n has no prime factor under the pre-pass limit, but the race itself only
    checks what it can cheaply.  walks, one per worker, are walks reduced
    mod n (RaceOutcome.walks_over) that the first round resumes; a worker
    whose entry is None draws fresh constants, as a retry round does.
    Without walks the first round uses the constants 1, 2, 3, ....  Rounds
    retry with fresh constants until a factor appears or config.max_rounds
    rounds have failed, which raises FactorSearchExhausted.
    """
    config = config or RaceConfig()
    if n < 3 or n % 2 == 0:
        raise ValueError(f"race expects an odd n >= 3, got {n}")
    workers = config.resolved_workers()
    if config.detector not in DETECTORS:
        raise ValueError(f"unknown detector {config.detector!r}")
    if config.max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    carried = [None] * workers if walks is None else list(walks)
    if len(carried) != workers:
        raise ValueError(f"expected {workers} walks, got {len(carried)}")
    rng = random.Random(config.seed)
    used: set[int] = set()
    start = time.perf_counter()
    for round_no in range(config.max_rounds):
        used.update(w.params.c for w in carried if w is not None)
        fresh = sum(w is None for w in carried)
        if round_no == 0 and walks is None:
            cs = assign_c(workers, n)
        else:
            try:
                cs = _draw_distinct_c(rng, n, fresh, used)
            except _ConstantsExhausted:
                raise FactorSearchExhausted(n, round_no) from None
        used.update(cs)
        x0s = [rng.randrange(n) for _ in range(fresh)]
        drawn = (
            RhoParams.make(n, c, x0, config.max_iters, config.gcd_batch)
            for c, x0 in zip(cs, x0s)
        )
        starts = [w if w is not None else next(drawn) for w in carried]
        carried = [None] * workers
        if workers == 1:
            outcome = _walk(n, starts[0], config.detector, None)
            outcomes = [outcome]
            winner = 0 if outcome.found else None
        else:
            outcomes, winner = _run_round(n, starts, config.detector)
        if winner is not None:
            return RaceOutcome(
                factor=outcomes[winner].factor,
                winner=winner,
                wall_time_s=time.perf_counter() - start,
                rounds=round_no + 1,
                worker_outcomes=outcomes,
            )
    raise FactorSearchExhausted(n, config.max_rounds)
