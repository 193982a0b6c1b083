"""First-factor-wins races: the same n attacked with distinct constants.

Different c values give independent pseudo-random orbits, so their collision
times are independent draws; racing k of them and keeping the first factor
collects the minimum.  Worker 0 runs in the calling process and workers
1..k-1 are forked OS processes (CPython threads cannot run big-int
arithmetic in parallel).  The children are a crew that one factorize call
forks once and keeps for all of its races; a direct race_factor call
forks a crew of its own.  Forking a child costs a millisecond or two
before its first step, more than many races take, so until the crew
exists worker 0 walks SOLO_STEPS steps alone first: a race it wins by then
forks nothing, and a longer one forks the k-1 children at that mark while
worker 0 walks on without a restart.  Every race after that hands the
children their walks at once, and they walk from its first step.

Each child is a bare os.fork() with two pipes to the caller, and both
carry lines of text, so no Python object crosses the fork; _walk_line
states the layout of a walk's line.  The down pipe carries each race's
walk as one line, or a stop, one "S" line, which the caller sends to a
child that has not reported when a factor is found; a stop that comes
after the child's report is consumed before its next walk.  EOF on the
down pipe means the caller is gone.  The up pipe carries one report per
walk, the outcome and the line of the walk it ended in, or "!" and the
repr of the child's exception.  The child first closes every caller end
of a pipe that it inherited, so that only its caller holds the write end
of its down pipe, and it never returns into the caller's frames: it
leaves through os._exit, with code 0 only when its down pipe reads EOF
after it has reported every walk it was handed.  Every worker polls once
per gcd batch: a child selects on its down pipe; worker 0 looks, through
_Round.wait, the caller's one select, at the up pipes of the children
that have not reported in this race, so it stops for a child's factor or
error, or for a child whose pipe reads EOF before a whole report, whose
exit code os.waitpid then gives.  A write to a child's down pipe that
fails finds a child lost in the same way.  The first factor found stops
every child that has not reported.  A child that raises, is lost or
cannot start (os.pipe or os.fork fails) fails the race with
RuntimeError.  The crew's close, in factorize's finally or at the end of
a direct call, closes every caller end of the pipes and kills and reaps
each child with SIGTERM and waitpid, on every way out, so no child
outlives the call.

Every worker's start is a rho.Walk.  race_factor can be handed one walk
per worker to resume (RaceOutcome.walks_over gives them for a cofactor of
the last race's n).  Every other start, in the first round or a retry, is
a fresh walk of the configured detector (rho.start) on the next unused
constant of one sequence per race: c = 1, 2, 3, ... mod n, skipping the
degenerate 0 and n-2 and every c a handed walk holds, so no c is walked
twice in a race; its start value is a seeded draw.  _run_round races the
walks it is given, one per worker, at every worker count: worker 0
resumes its walk in the caller, a child is handed its walk on its down
pipe, and every worker's outcome, a worker's that was handed none
included, carries the walk it ended in.

With workers=1 the round is worker 0 alone: it forks nothing, its poll
never stops it, and its outcome is byte-for-byte a direct call of the
configured detector, which keeps single-worker runs reproducible.  The
default detector is Brent's: it finds a factor with fewer modular
multiplications than Floyd's pairing, which stays available as
detector="floyd".
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
# Until the crew exists, worker 0 walks this many steps alone before workers
# 1..k-1 are forked; once it exists, no race waits for a mark.  6656 steps
# are 52 batches of 128, about 3.3 ms of Brent steps on a 21-digit n, a
# little more than the median 2.2 ms a forked child takes from fork() to
# its first step (60 forks on 2 vCPUs, Python 3.11, the caller holding the
# 10**6 table).  The fork comes at worker 0's first batch boundary at or
# past the mark: step 6656 for Floyd, 6782 for a fresh Brent walk, whose
# first 14 batches (phases r = 1..64) are shorter than 128 steps.
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


def _walk_line(n, walk):
    """The line, without its newline, that carries walk on n across a pipe.

    It is the detector's name, then n, c, x0, the budget (0 for none),
    gcd_batch, walk.walked and the detector's state, as decimal ints, all
    separated by single spaces.  A walk handed down to a child is this
    line; a child's report up is the outcome's kind, its iterations and
    its factor (0 for none), then this line of the walk it ended in.
    _parse_walk reads it back.
    """
    params = walk.params
    ints = (n, params.c, params.x0, params.max_iters or 0, params.gcd_batch, walk.walked, *walk.state)
    return " ".join(map(str, (walk.detector, *ints)))


def _parse_walk(line):
    """(n, walk) from a _walk_line line."""
    detector, *ints = line.split()
    n, c, x0, budget, batch, walked, *state = map(int, ints)
    return n, Walk(detector, RhoParams(c, x0, budget or None, batch), tuple(state), walked)


def _child_main(down, up, callers_ends):
    """A forked worker: walk each walk handed to it until it is done or
    stopped, report it, and _exit once the caller is gone.

    A walk's line (_walk_line) is read from down; the walk selects on down
    once per batch, and the stop, or EOF, waiting there stops it.  The
    report written to up is one line, as _walk_line states, or "!" and
    the exception's repr.  A stop read where a walk would start came after
    the report and is skipped.  The caller's ends of the pipes made so
    far, this child's own among them, came along with the fork: closing
    them leaves the caller the only writer of each down pipe.  The child
    never returns into the caller's frames: whatever it meets, a
    BaseException included, it leaves through os._exit, with code 0 only
    when down reads EOF after every walk handed to it was reported.
    """
    try:
        for fd in callers_ends:
            os.close(fd)
        pending = b""  # read from down, not yet taken as a line

        def next_line():
            nonlocal pending
            while b"\n" not in pending:
                if not (chunk := os.read(down, 1 << 16)):
                    return None  # EOF: the caller is gone
                pending += chunk
            line, pending = pending.split(b"\n", 1)
            return line.decode()

        def stopped(steps):
            return bool(pending) or bool(select.select([down], [], [], 0)[0])

        while (line := next_line()) is not None:
            if line == "S":
                continue  # the stop of a walk that had ended before it came
            try:
                n, walk = _parse_walk(line)
                out = rho.resume(n, walk, stopped)
                report = f"{out.kind} {out.iterations} {out.factor or 0} {_walk_line(n, out.walk)}"
            except Exception as exc:  # report instead of hanging the coordinator
                report = "!" + repr(exc)
            os.write(up, f"{report}\n".encode())
        os._exit(0)
    finally:
        os._exit(1)  # a BaseException, or the caller gone while it reported


class _Crew:
    """Workers 1..k-1 of one factorize call, or of one direct race_factor
    call: forked once, by the first round that hands them walks, and kept
    until close.

    Each child has a down pipe, whose caller end is in downs, and an up
    pipe, whose caller end is in ups.  A lost child is reaped at once and
    leaves procs; close kills and reaps the rest.  With k=1 there are no
    children, and fork forks nothing.
    """

    def __init__(self):
        self.forked = False
        self.procs = {}  # child index -> pid, until the child is reaped
        self.downs = {}  # child index -> caller's end of its down pipe
        self.ups = {}  # child index -> caller's end of its up pipe

    def fork(self, children):
        """Fork children 1..children: once, by the crew's first round.

        If os.pipe or os.fork fails, raises RuntimeError naming the OS
        error, after closing the child's ends of the pipes made for it;
        close() closes the caller's ends and reaps the children started.
        """
        self.forked = True
        for i in range(1, children + 1):
            childs_ends = []  # closed here once the child has its copies, or on a failure
            try:
                down, self.downs[i] = os.pipe()
                childs_ends.append(down)
                self.ups[i], up = os.pipe()
                childs_ends.append(up)
                ends = [*self.downs.values(), *self.ups.values()]
                # A child runs _child_main, which never returns.
                self.procs[i] = os.fork() or _child_main(down, up, ends)
            except OSError as exc:
                raise RuntimeError(f"could not start the race workers: {exc}") from exc
            finally:
                for fd in childs_ends:
                    os.close(fd)

    def send(self, i, line):
        """Write line to child i's down pipe; a child gone is a lost child."""
        data = f"{line}\n".encode()
        try:
            while data:
                data = data[os.write(self.downs[i], data) :]
        except BrokenPipeError:
            self.lost(i)

    def lost(self, i):
        """Reap child i, which exited without reporting, and raise."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.procs.pop(i), 0)[1])
        raise RuntimeError(f"race worker {i} exited with code {code} without reporting")

    def close(self):
        """Close the caller's pipe ends, then kill and reap every child.

        SIGTERM stops a child at once, and an exited child stays a zombie
        until waitpid reaps it, so the kill cannot miss.
        """
        import signal  # here, not at the top: it costs about 1 ms at import

        for fd in [*self.downs.values(), *self.ups.values()]:
            os.close(fd)
        for pid in self.procs.values():
            os.kill(pid, signal.SIGTERM)
        for pid in self.procs.values():
            os.waitpid(pid, 0)


class _Round:
    """One round of a race, seen from the caller, which runs worker 0.

    Worker 0's cancel is this object's poll, at every worker count.  While
    the crew is not forked and worker 0 has walked fewer than SOLO_STEPS
    steps in this race, the poll only compares the steps rho.resume
    reports.  The poll at the mark, or the first poll once the crew
    exists, hands workers 1..k-1 their walks, forking the crew first if it
    is not forked yet; with k=1 there is nothing to hand.  From then on
    the poll is wait(0), one select over the up pipes of the children that
    have not reported in this round, skipped while none is open: an up
    pipe turns readable when its child reports an outcome or an error, or
    exits without reporting.  The first factor, worker 0's or a child's,
    stops every child that has not reported.  A child's error, or a child
    lost, raises RuntimeError at once; a lost child is one whose up pipe
    reads EOF before a whole line, or whose down pipe fails a write, and
    os.waitpid gives its exit code.  Each worker's outcome starts as
    RhoOutcome(CANCELLED, 0) carrying the walk it was handed, which is
    what a worker reports that is never handed it.
    """

    def __init__(self, n, walks, crew):
        self.crew = crew
        # The lines of workers 1..k-1's walks, until the poll hands them over.
        self.to_hand = [_walk_line(n, walk) for walk in walks[1:]]
        self.pipes = {}  # caller's end of an up pipe -> child index, until it reports
        self.results = [RhoOutcome(rho.CANCELLED, 0, walk=walk) for walk in walks]
        self.winner = None

    def poll(self, steps):
        """Worker 0's poll, before each gcd batch; steps is what it has
        walked in this race so far."""
        if self.to_hand:
            if steps < SOLO_STEPS and not self.crew.forked:
                return False
            if not self.crew.forked:
                self.crew.fork(len(self.to_hand))
            for i, line in enumerate(self.to_hand, start=1):
                self.crew.send(i, line)
                self.pipes[self.crew.ups[i]] = i
            self.to_hand = []
        self.wait(0)
        return self.winner is not None

    def wait(self, timeout):
        """The caller's one select: wait up to timeout seconds (None: with
        no limit) for a child that has not reported, and read every report
        that is ready then."""
        if self.pipes:
            for fd in select.select(list(self.pipes), [], [], timeout)[0]:
                self.read(fd)

    def report(self, idx, out):
        """Record worker idx's outcome; the first factor stops the rest."""
        self.results[idx] = out
        if out.found and self.winner is None:
            self.winner = idx
            for i in self.pipes.values():
                self.crew.send(i, "S")

    def read(self, fd):
        """Take the report a readable pipe holds; fail on an error or EOF."""
        data = b""
        while not data.endswith(b"\n") and (chunk := os.read(fd, 1 << 16)):
            data += chunk
        idx = self.pipes.pop(fd)
        line = data.decode()
        if not line.endswith("\n"):  # EOF first: the child exited without reporting
            self.crew.lost(idx)
        if line.startswith("!"):
            raise RuntimeError(f"race worker {idx} failed: {line[1:-1]}")
        kind, iterations, factor, rest = line.split(" ", 3)
        self.report(idx, RhoOutcome(kind, int(iterations), int(factor) or None, _parse_walk(rest)[1]))


def _run_round(n, walks, crew):
    """Race walks[i] as worker i: 0 here, 1..k-1 in crew's children.

    Every worker count runs here; with one walk, worker 0 walks alone and
    nothing is forked.  Returns (outcomes by worker index, index of the
    first worker whose factor was reported, or None); each outcome's walk
    is where that worker stopped.  Until the crew is forked, a factor
    worker 0 finds within its SOLO_STEPS head start forks nothing, and a
    failure within it forks the crew then, through a poll called as if
    the mark were reached; once the crew exists, the children are handed
    their walks at worker 0's first poll.  The first factor stops the
    others at their next batch boundary; a child's factor reaches the
    caller through worker 0's next poll.  The round returns once every
    child handed a walk has reported, so the crew is ready for the next
    round.  A child that raises, or exits without reporting, fails the
    round with RuntimeError, and so does a failed os.pipe or os.fork; an
    exception of worker 0 propagates as it is.  Either leaves the crew
    mid-round: its owner closes it.
    """
    this_round = _Round(n, walks, crew)
    this_round.report(0, rho.resume(n, walks[0], this_round.poll))
    if this_round.winner is None:
        this_round.poll(SOLO_STEPS)
    while this_round.pipes:
        this_round.wait(None)
    return this_round.results, this_round.winner


def race_factor(
    n: int, config: RaceConfig | None = None, walks: list[Walk | None] | None = None, *, _crew=None
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
    RuntimeError at once.

    The call forks its workers 1..k-1 at most once, and kills and reaps
    them before it returns or raises, so no child outlives it and every
    pipe end is closed.  _crew is factorize's: it hands the one crew of
    its call to each of its races, and closes it itself.

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

    crew = _Crew() if _crew is None else _crew
    try:
        for round_no in range(MAX_ROUNDS):
            try:
                starts = [w if w is not None else fresh() for w in carried]
            except StopIteration:  # every usable constant mod n is taken
                raise FactorSearchExhausted(n, round_no) from None
            carried = [None] * workers
            outcomes, winner = _run_round(n, starts, crew)
            if winner is not None:
                return RaceOutcome(
                    factor=outcomes[winner].factor,
                    winner=winner,
                    rounds=round_no + 1,
                    worker_outcomes=outcomes,
                )
        raise FactorSearchExhausted(n, MAX_ROUNDS)
    finally:
        if crew is not _crew:
            crew.close()
