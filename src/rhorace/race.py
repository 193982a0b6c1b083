"""First-factor-wins races: the same n attacked with distinct constants.

Different c values give independent pseudo-random orbits, so their collision
times are independent draws; racing k of them and keeping the first factor
collects the minimum.  Worker 0 runs in the calling process and workers
1..k-1 are forked OS processes (CPython threads cannot run big-int
arithmetic in parallel).  Forking a child costs a few milliseconds before
its first step, more than many races take, so worker 0 first walks
SOLO_STEPS steps alone: a race it wins by then forks nothing, and a longer
one forks the k-1 children at that mark while worker 0 walks on without a
restart.  Each child gets one duplex pipe to the caller: its report goes
up, a stop comes down, and either end reads EOF once the other process
has exited.  Every worker polls once per gcd batch: a child selects on
its pipe, so it stops when the caller stops it or dies; worker 0 selects
on the pipes of the children that have not reported, so it stops for a
child's factor or error, or for a child that died without reporting.
The first factor found sends a stop down every open pipe.

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
MAX_ROUNDS = 16  # rounds a race tries before FactorSearchExhausted
# Worker 0 walks this many steps alone before workers 1..k-1 are forked:
# 52 batches of 128, about 3.3 ms of Brent steps on a 21-digit n, about
# the 2-3.5 ms a forked child takes from fork() to its first step.  The
# fork comes at worker 0's first batch boundary at or past the mark: step
# 6656 for Floyd, 6782 for a fresh Brent walk, whose first 14 batches
# (phases r = 1..64) are shorter than 128 steps.
SOLO_STEPS = 6656


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


def _child_main(n, start, detector, conn, callers_ends):
    """A forked worker: walk until done or stopped, then report on conn.

    conn is readable once the caller sends a stop or exits, so the walk
    polls it once per batch.  The caller's ends of the pipes made so far,
    this child's own among them, came along with the fork: closing them
    here lets every child see EOF when the caller dies.
    """
    for end in callers_ends:
        end.close()
    try:
        report = _walk(n, start, detector, lambda steps: bool(select.select([conn], [], [], 0)[0]))
    except Exception as exc:  # report instead of hanging the coordinator
        report = repr(exc)
    try:
        conn.send(report)
    except OSError:
        pass  # the caller is gone: nobody is left to read the report


class _Round:
    """One multi-worker round, seen from the caller, which runs worker 0.

    Worker 0's cancel is this object's poll.  Until worker 0 has walked
    SOLO_STEPS steps in this race nothing else exists, and the poll only
    compares the steps the driver reports.  The poll at the mark forks
    workers 1..k-1, each handed its walk and one end of its own duplex
    pipe.  From then on the poll is one select over the pipes of the
    children that have not reported: a child's pipe turns readable when
    it reports an outcome or an error, or exits without reporting.  The
    first factor, worker 0's or a child's, sends a stop down every open
    pipe.  A child's error, or a child lost, raises RuntimeError at once.
    """

    def __init__(self, n, starts, detector):
        self.n = n
        self.starts = starts
        self.detector = detector
        self.forked = False
        self.procs = {}
        self.pipes = {}  # caller's end -> child index, until that child reports
        self.results: dict[int, RhoOutcome] = {}
        self.winner = None

    def poll(self, steps):
        """Worker 0's poll, before each gcd batch; steps is what it has
        walked in this race so far."""
        if not self.forked:
            if steps < SOLO_STEPS:
                return False
            self.fork()
        ready, _, _ = select.select(list(self.pipes), [], [], 0)
        for conn in ready:
            self.read(conn)
        return self.winner is not None

    def fork(self):
        """Start workers 1..k-1; a no-op once they are started."""
        if self.forked:
            return
        self.forked = True
        for i, start in enumerate(self.starts[1:], start=1):
            conn, child_end = _FORK.Pipe()
            self.pipes[conn] = i
            p = _FORK.Process(
                target=_child_main,
                args=(self.n, start, self.detector, child_end, list(self.pipes)),
                daemon=True,
            )
            self.procs[i] = p
            p.start()
            child_end.close()

    def report(self, idx, out):
        """Record worker idx's outcome; the first factor stops the rest."""
        self.results[idx] = out
        if out.found and self.winner is None:
            self.winner = idx
            for conn in self.pipes:
                try:
                    conn.send(None)
                except OSError:
                    pass  # that child has exited; reading its pipe tells how

    def read(self, conn):
        """Take the report a readable pipe holds; fail on an error or EOF."""
        idx = self.pipes.pop(conn)
        try:
            report = conn.recv()
        except (EOFError, ConnectionResetError):
            # Reset, not EOF, when the child exited with the stop unread.
            self.procs[idx].join()
            raise RuntimeError(
                f"race worker {idx} exited with code "
                f"{self.procs[idx].exitcode} without reporting"
            ) from None
        finally:
            conn.close()
        if isinstance(report, str):
            raise RuntimeError(f"race worker(s) failed: {[(idx, report)]}")
        self.report(idx, report)

    def close(self):
        """Terminate children still alive and join all of them."""
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            if p.pid is not None:
                p.join()
        for conn in self.pipes:
            conn.close()


def _run_round(n, starts, detector):
    """Race starts[i] as worker i: 0 here, 1..k-1 in forked children.

    A start is a Walk to resume or the RhoParams of a fresh walk.  Returns
    (outcomes by worker index, index of the first worker whose factor was
    reported, or None); each outcome's walk is where that worker stopped.
    If worker 0 finds a factor within its SOLO_STEPS head start, no child is
    forked and every other outcome is RhoOutcome(CANCELLED, 0) carrying the
    Walk it was handed, if any; if it fails within it, the others are
    forked then.  Once children exist, the first factor stops the others
    at their next batch boundary: worker 0 through its poll, each child
    through the stop the caller sends down its pipe, which a child's factor
    reaches through worker 0's next poll.  A child that raises, or exits
    without reporting, fails the round with RuntimeError; an exception of
    worker 0 propagates as it is.  On every way out, errors and
    KeyboardInterrupt included, children still alive are terminated and
    all are joined, so no worker computation survives this call; if the
    caller itself is killed, each child reads EOF on its pipe and stops
    within a batch.
    """
    this_round = _Round(n, starts, detector)
    try:
        this_round.report(0, _walk(n, starts[0], detector, this_round.poll))
        if this_round.winner is None:
            this_round.fork()
        while this_round.pipes:
            for conn in wait(list(this_round.pipes)):
                this_round.read(conn)
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
    retry with fresh constants until a factor appears or MAX_ROUNDS
    rounds have failed, which raises FactorSearchExhausted.
    """
    config = config or RaceConfig()
    if n < 3 or n % 2 == 0:
        raise ValueError(f"race expects an odd n >= 3, got {n}")
    workers = config.resolved_workers()
    if config.detector not in DETECTORS:
        raise ValueError(f"unknown detector {config.detector!r}")
    carried = [None] * workers if walks is None else list(walks)
    if len(carried) != workers:
        raise ValueError(f"expected {workers} walks, got {len(carried)}")
    rng = random.Random(config.seed)
    used: set[int] = set()
    start = time.perf_counter()
    for round_no in range(MAX_ROUNDS):
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
    raise FactorSearchExhausted(n, MAX_ROUNDS)
