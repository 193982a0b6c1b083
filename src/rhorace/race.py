"""First-factor-wins races: the same n attacked with distinct constants.

Different c values give independent pseudo-random orbits, so their collision
times are independent draws; racing k of them and keeping the first factor
collects the minimum.  Worker 0 runs in the calling process and workers
1..k-1 are forked OS processes (CPython threads cannot run big-int
arithmetic in parallel).  Forking a child costs a millisecond or two
before its first step, more than many races take, so worker 0 first walks
SOLO_STEPS steps alone: a race it wins by then forks nothing, and a longer
one forks the k-1 children at that mark while worker 0 walks on without a
restart.

Each child is a bare os.fork() with two pipes to the caller.  The stop
pipe carries nothing: closing the caller's end is the stop, the same EOF
a dead caller gives, and the child's read end turns readable with it.
The report pipe carries one line up: the outcome's kind and decimal ints
from which the caller rebuilds the child's outcome and walk, or "!" and
the repr of the child's exception, so no Python object crosses the fork.
The child first closes every caller end of a pipe that it inherited, so
that only its caller holds the write end of its stop pipe, and it never
returns into the caller's frames: it leaves through os._exit, with code 0
only once it has reported.  Every worker polls once per gcd batch: a
child selects on its stop pipe; worker 0 selects on the report pipes of
the children that have not reported, so it stops for a child's factor or
error, or for a child whose pipe reads EOF before a whole report, whose
exit code os.waitpid then gives.  The first factor found stops every
child that has not reported, and on every way out of a round the caller
kills and reaps each child with SIGTERM and waitpid.  A child that
raises, is lost or cannot start (os.pipe or os.fork fails) fails the
round with RuntimeError, raised once every pipe end is closed.

Every worker's start is a rho.Walk.  race_factor can be handed one walk
per worker to resume (RaceOutcome.walks_over gives them for a cofactor of
the last race's n).  Every other start, in the first round or a retry, is
a fresh walk of the configured detector (rho.start) on the next unused
constant of one sequence per race: c = 1, 2, 3, ... mod n, skipping the
degenerate 0 and n-2 and every c a handed walk holds, so no c is walked
twice in a race; its start value is a seeded draw.  _run_round races the
walks it is given, one per worker, at every worker count: worker 0
resumes its walk in the caller, a child is handed its walk when it is
forked, and every worker's outcome, a never-forked worker's included,
carries the walk it ended in.

With workers=1 the round is worker 0 alone: it forks nothing, its poll
never stops it, and its outcome is byte-for-byte a direct call of the
configured detector, which keeps single-worker runs reproducible.  The
default detector is Brent's (rho.brent_attempt): it finds a factor with
fewer modular multiplications than Floyd's pairing, which stays available
as detector="floyd".
"""

from __future__ import annotations

import os
import random
import select
from collections import namedtuple
from types import SimpleNamespace

from . import rho
from .rho import RhoOutcome, RhoParams, Walk

MAX_ROUNDS = 16  # rounds a race tries before FactorSearchExhausted
# Worker 0 walks this many steps alone before workers 1..k-1 are forked:
# 52 batches of 128, about 3.3 ms of Brent steps on a 21-digit n, a little
# more than the median 2.2 ms a forked child takes from fork() to its first
# step (60 forks on 2 vCPUs, Python 3.11, the caller holding the 10**6
# table).  The fork comes at worker 0's first batch boundary at or past the
# mark: step 6656 for Floyd, 6782 for a fresh Brent walk, whose first 14
# batches (phases r = 1..64) are shorter than 128 steps.
SOLO_STEPS = 6656


class FactorSearchExhausted(Exception):
    """Every worker of every retry round failed to produce a factor."""

    def __init__(self, n: int, rounds: int):
        super().__init__(f"no factor of {n} found after {rounds} round(s)")
        self.n = n
        self.rounds = rounds


class RaceConfig(SimpleNamespace):
    """Knobs for race_factor.  workers=0 means the detected core count.

    Every fresh walk takes the race's next unused constant c = 1, 2, 3, ...;
    seed seeds the generator that draws each fresh walk's start value.
    max_iters=None means no budget: a walk ends on a factor, its cycle or
    a cancel.  Bad values raise ValueError when the config is made.

    The class attributes are the defaults.  A config compares and prints
    by its five knobs, and RaceConfig(**{**vars(config), "workers": 2}) is
    a copy with one knob changed.
    """

    workers = 0
    seed = 0
    max_iters = None
    gcd_batch = rho.DEFAULT_GCD_BATCH
    detector = "brent"

    def __init__(
        self, workers=workers, seed=seed, max_iters=max_iters, gcd_batch=gcd_batch, detector=detector
    ):
        super().__init__(
            workers=workers, seed=seed, max_iters=max_iters, gcd_batch=gcd_batch, detector=detector
        )
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.gcd_batch < 1:
            raise ValueError("gcd_batch must be >= 1")
        if self.detector not in rho.DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")

    def resolved_workers(self) -> int:
        return self.workers if self.workers else (os.cpu_count() or 1)


class RaceOutcome(namedtuple("RaceOutcome", "factor winner rounds worker_outcomes")):
    """The winning factor plus per-worker accounting for the final round.

    An immutable record.  It holds no time: factorize adds each race's time
    to PipelineStats.race_s, and times the whole call in total_s.
    """

    __slots__ = ()

    @property
    def per_worker_iterations(self) -> list[int]:
        """Iterations each worker of the final round ran, by worker index."""
        return [o.iterations for o in self.worker_outcomes]

    def walks_over(self, m: int) -> list[Walk | None] | None:
        """Each worker's walk reduced mod m, a divisor of n, to race m with.

        A walk goes on if it found the factor or was cancelled, both at a
        batch boundary; a worker that was never forked reports its walk
        cancelled as it was handed over, fresh or carried, so that walk
        goes on too.  None stands for a walk that met its cycle or spent
        its budget, or whose c reduces to 0 or -2 mod m: that worker starts
        a fresh walk on the race's next unused constant.  Returns None when
        no walk goes on.
        """
        walks = [
            o.walk.over(m) if o.kind in (rho.FACTOR, rho.CANCELLED) else None
            for o in self.worker_outcomes
        ]
        return walks if any(w is not None for w in walks) else None


def _constants(n, used):
    """A race's constants: 1, 2, 3, ... mod n, skipping n-2 and used.

    0 and n-2 give degenerate polynomials; used holds the carried walks'
    c, so no c is walked twice in one race.
    """
    for c in range(1, n):
        if c != n - 2 and c not in used:
            yield c


def _child_main(n, walk, stop, report, callers_ends):
    """A forked worker: walk until done or stopped, report, then _exit.

    The walk selects on stop once per batch.  The report written to report
    is one line: the outcome's kind, then its iterations, factor (0 for
    none), the walk's lifetime walked and its state as decimal ints; an
    exception is "!" and its repr instead.  The caller's ends of the pipes
    made so far, this child's own among them, came along with the fork:
    closing them leaves the caller the only writer of each stop pipe.  The
    child never returns into the caller's frames: whatever it meets, a
    BaseException included, it leaves through os._exit, with code 0 only
    once its report is written.
    """
    try:
        for fd in callers_ends:
            os.close(fd)
        try:
            out = rho.resume(n, walk, lambda steps: bool(select.select([stop], [], [], 0)[0]))
            ints = (out.iterations, out.factor or 0, out.walk.walked, *out.walk.state)
            line = " ".join(map(str, (out.kind, *ints)))
        except Exception as exc:  # report instead of hanging the coordinator
            line = "!" + repr(exc)
        os.write(report, f"{line}\n".encode())
        os._exit(0)
    finally:
        os._exit(1)  # no report: a BaseException, or the caller is gone


class _Round:
    """One round of a race, seen from the caller, which runs worker 0.

    Worker 0's cancel is this object's poll, at every worker count.
    Until worker 0 has walked SOLO_STEPS steps in this race nothing else
    exists, and the poll only compares the steps the driver reports.  The
    poll at the mark forks workers 1..k-1 with os.fork, each handed its
    walk and two pipes: a stop pipe down to it and a report pipe up from
    it; with k=1 it forks nothing.  From then on the poll is one select
    over the report pipes of the children that have not reported, skipped
    while none is open: a report pipe turns readable when its child
    reports an outcome or an error, or exits without reporting.  The first
    factor, worker 0's or a child's, stops every child that has not
    reported.  A child's error, or a child lost, raises RuntimeError at
    once; a lost child is one whose report pipe reads EOF before a whole
    line, and os.waitpid gives its exit code.  Each worker's outcome starts
    as RhoOutcome(CANCELLED, 0) carrying the walk it was handed, which is
    what a worker that is never forked reports.
    """

    def __init__(self, n, walks):
        self.n = n
        self.walks = walks
        self.forked = False
        self.procs = {}  # child index -> pid, until the child is reaped
        self.stops = {}  # child index -> caller's end of its stop pipe, until it is stopped
        self.pipes = {}  # caller's end of a report pipe -> child index, until it reports
        self.results = [RhoOutcome(rho.CANCELLED, 0, walk=walk) for walk in walks]
        self.winner = None

    def poll(self, steps):
        """Worker 0's poll, before each gcd batch; steps is what it has
        walked in this race so far."""
        if not self.forked:
            if steps < SOLO_STEPS:
                return False
            self.fork()
        if self.pipes:
            for fd in select.select(list(self.pipes), [], [], 0)[0]:
                self.read(fd)
        return self.winner is not None

    def fork(self):
        """Start workers 1..k-1; a no-op once they are started.

        If os.pipe or os.fork fails, raises RuntimeError naming the OS
        error, after closing the child's ends of the pipes made for it;
        close() closes the caller's ends and reaps the children started.
        """
        if self.forked:
            return
        self.forked = True
        for i, walk in enumerate(self.walks[1:], start=1):
            childs_ends = []  # closed here once the child has its copies, or on a failure
            try:
                stop, self.stops[i] = os.pipe()
                childs_ends.append(stop)
                report_end, report = os.pipe()
                childs_ends.append(report)
                self.pipes[report_end] = i
                ends = [*self.stops.values(), *self.pipes]
                # A child runs _child_main, which never returns.
                self.procs[i] = os.fork() or _child_main(self.n, walk, stop, report, ends)
            except OSError as exc:
                raise RuntimeError(f"could not start the race workers: {exc}") from exc
            finally:
                for fd in childs_ends:
                    os.close(fd)

    def report(self, idx, out):
        """Record worker idx's outcome; the first factor stops the rest."""
        self.results[idx] = out
        if out.found and self.winner is None:
            self.winner = idx
            for i in self.pipes.values():
                os.close(self.stops.pop(i))

    def read(self, fd):
        """Take the report a readable pipe holds; fail on an error or EOF."""
        data = b""
        while not data.endswith(b"\n") and (chunk := os.read(fd, 1 << 16)):
            data += chunk
        idx = self.pipes.pop(fd)
        os.close(fd)
        line = data.decode()
        if not line.endswith("\n"):  # EOF first: the child exited without reporting
            code = os.waitstatus_to_exitcode(os.waitpid(self.procs.pop(idx), 0)[1])
            raise RuntimeError(f"race worker {idx} exited with code {code} without reporting")
        if line.startswith("!"):
            raise RuntimeError(f"race worker(s) failed: {[(idx, line[1:-1])]}")
        kind, *ints = line.split()
        iterations, factor, walked, *state = map(int, ints)
        walk = Walk(self.walks[idx].step, self.walks[idx].params, tuple(state), walked)
        self.report(idx, RhoOutcome(kind, iterations, factor or None, walk))

    def close(self):
        """Close the caller's pipe ends, then kill and reap every child.

        SIGTERM stops a child at once, and an exited child stays a zombie
        until waitpid reaps it, so the kill cannot miss.
        """
        import signal  # here, not at the top: it costs about 1 ms at import

        for fd in [*self.stops.values(), *self.pipes]:
            os.close(fd)
        for pid in self.procs.values():
            os.kill(pid, signal.SIGTERM)
        for pid in self.procs.values():
            os.waitpid(pid, 0)


def _run_round(n, walks):
    """Race walks[i] as worker i: 0 here, 1..k-1 in forked children.

    Every worker count runs here; with one walk, worker 0 walks alone and
    nothing is forked.  Returns (outcomes by worker index, index of the
    first worker whose factor was reported, or None); each outcome's walk
    is where that worker stopped.  If worker 0 finds a factor within its
    SOLO_STEPS head start, no child is forked; if it fails within it, the
    others are forked then.  Once children exist, the first factor stops
    the others at their next batch boundary; a child's factor reaches the
    caller through worker 0's next poll.  A child that raises, or exits
    without reporting, fails the round with RuntimeError, and so does a
    failed os.pipe or os.fork, once every pipe end is closed; an exception
    of worker 0 propagates as it is.  On every way out, errors and
    KeyboardInterrupt included, every child is killed and reaped, so no
    worker computation survives this call.
    """
    this_round = _Round(n, walks)
    try:
        this_round.report(0, rho.resume(n, walks[0], this_round.poll))
        if this_round.winner is None:
            this_round.fork()
        while this_round.pipes:
            for fd in select.select(list(this_round.pipes), [], [])[0]:
                this_round.read(fd)
        return this_round.results, this_round.winner
    finally:
        this_round.close()


def race_factor(
    n: int, config: RaceConfig | None = None, walks: list[Walk | None] | None = None
) -> RaceOutcome:
    """Find one nontrivial factor of n by racing workers, first factor wins.

    n must be an odd composite; the pipeline guarantees on top of that that
    n has no prime factor under the pre-pass limit, but the race itself only
    checks what it can cheaply.  walks, one per worker, are walks reduced
    mod n (RaceOutcome.walks_over) that the first round resumes.  Every
    other start is a fresh walk on the next c of 1, 2, 3, ... mod n that is
    not 0, n-2 or a handed walk's c, so a None entry is the same as no walk,
    and a race with no walks starts on 1..k.  Rounds retry on fresh walks
    until a factor appears or MAX_ROUNDS rounds have failed; either, or
    running out of unused constants, raises FactorSearchExhausted.  A
    round whose child raised, was lost or could not start raises
    RuntimeError at once, with no child left and every pipe end closed.

    The pipeline races only composites.  A direct call on a prime p can
    find no factor: with no budget, each walk of each of the MAX_ROUNDS
    rounds runs until its cycle mod p, about sqrt(p) steps, before
    FactorSearchExhausted.  No time limit bounds such a call.
    """
    config = config or RaceConfig()
    if n < 3 or n % 2 == 0:
        raise ValueError(f"race expects an odd n >= 3, got {n}")
    workers = config.resolved_workers()
    carried = [None] * workers if walks is None else list(walks)
    if len(carried) != workers:
        raise ValueError(f"expected {workers} walks, got {len(carried)}")
    cs = _constants(n, {w.params.c for w in carried if w is not None})
    rng = random.Random(config.seed)

    def fresh():
        params = RhoParams.make(n, next(cs), rng.randrange(n), config.max_iters, config.gcd_batch)
        return rho.start(config.detector, params)

    for round_no in range(MAX_ROUNDS):
        try:
            starts = [w if w is not None else fresh() for w in carried]
        except StopIteration:  # every usable constant mod n is taken
            raise FactorSearchExhausted(n, round_no) from None
        carried = [None] * workers
        outcomes, winner = _run_round(n, starts)
        if winner is not None:
            return RaceOutcome(
                factor=outcomes[winner].factor,
                winner=winner,
                rounds=round_no + 1,
                worker_outcomes=outcomes,
            )
    raise FactorSearchExhausted(n, MAX_ROUNDS)
