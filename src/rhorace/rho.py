"""Single rho attempts: Floyd (tortoise and hare) and the Brent variant.

The driving iteration is x -> x*x + c (mod n).  Taken mod an unknown prime
divisor p of n, the sequence enters a cycle after roughly sqrt(p) values (a
birthday-paradox collision), far sooner than the full sequence mod n repeats.
The collision itself is invisible, but it makes gcd(|x_i - x_j|, n)
nontrivial for suitably paired indices: Floyd pairs x_i with x_{2i}, Brent
compares against a saved power-of-two checkpoint.

gcds are the expensive step, so differences are accumulated as a modular
product and a single gcd is taken per batch.  When a whole batch collapses
(its gcd is n), the batch is replayed one step at a time from its start:
the factor that appeared mid-batch is recovered unless the two sequences
genuinely met, which is the one honest no-factor outcome.

Every attempt is a Walk driven by resume, the one driver, which owns the
budget, the cancel poll, the batch gcd, the replay and the outcome.  A
detector supplies only a start state and a function that advances its walk
by up to a given number of steps; start(detector, params) makes the fresh
Walk, and rho_attempt and brent_attempt resume one.  Every outcome carries
the Walk it ended in: the detector state, the constants and the steps
walked over the walk's whole life.  resume continues any Walk, and
Walk.over reduces one mod a divisor m of its n, as in Knuth's rho
Algorithm B (TAOCP Vol. 2, 4.5.4, step B3): a walk of x*x + c mod n, read
mod m, is a walk of x*x + c mod m, so after a split the walk goes on over
the cofactor instead of starting again.

A walk has no iteration budget unless its params set one: it ends on a
factor, on its cycle or on a cancel.  On a prime p the cycle, with no
factor, comes after about sqrt(p) steps.  A budget that is set,
max_iters, counts over the walk's whole life, on every modulus it is
carried to.

Attempts are deterministic in (n, params).  They may fail to find a factor;
they never report a wrong one.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .numeric import gcd

FACTOR = "factor"
NO_FACTOR_CYCLE = "no-factor-cycle"
BUDGET_EXHAUSTED = "budget-exhausted"
CANCELLED = "cancelled"

DEFAULT_GCD_BATCH = 128


class RhoParams(namedtuple("RhoParams", "c x0 max_iters gcd_batch", defaults=(DEFAULT_GCD_BATCH,))):
    """Knobs for one attempt.  c and x0 are residues mod the target n.

    An immutable record: _replace gives a copy with some fields changed.
    """

    __slots__ = ()

    @classmethod
    def make(
        cls,
        n: int,
        c: int,
        x0: int = 0,
        max_iters: int | None = None,
        gcd_batch: int = DEFAULT_GCD_BATCH,
    ) -> "RhoParams":
        """Build params reduced mod n; max_iters None means no budget."""
        params = cls(c % n, x0 % n, max_iters, gcd_batch)
        params.validate_for(n)
        return params

    def validate_for(self, n: int) -> None:
        if self.gcd_batch < 1:
            raise ValueError("gcd_batch must be >= 1")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 <= self.x0 < n:
            raise ValueError(f"x0 must lie in [0, {n})")
        c = self.c % n
        if c == 0 or c == (n - 2) % n:
            raise ValueError("c must not be congruent to 0 or -2 mod n")


class Walk(namedtuple("Walk", "step params state walked")):
    """Where a walk stopped, ready to resume on its n or on a divisor of it.

    step is the detector's advance factory (_floyd or _brent).  params hold
    c and x0 as residues mod the n the walk is on now.  state is the
    detector's state: Floyd's (tort, hare), Brent's (x, y, r, k).  walked
    counts every step of the walk's life, replays included.  A budget
    params.max_iters, if set, covers that whole life and carries over
    unchanged to every cofactor the walk is reduced to: the driver starts
    no batch once walked reaches it.  None means no budget.  Like
    RhoParams, an immutable record.
    """

    __slots__ = ()

    def over(self, m: int) -> Walk | None:
        """This walk reduced mod a divisor m of its n, or None if c
        reduces to 0 or -2 mod m.

        x**2 + c mod n, read mod m, is x**2 + (c mod m) mod m, so the
        reduced walk is the walk that the same start mod m would have taken.
        """
        c = self.params.c % m
        if c == 0 or c == m - 2:
            return None
        params = self.params._replace(c=c, x0=self.params.x0 % m)
        state = (self.state[0] % m, self.state[1] % m, *self.state[2:])
        return Walk(self.step, params, state, self.walked)


class RhoOutcome(namedtuple("RhoOutcome", "kind iterations factor walk", defaults=(None, None))):
    """Result of one attempt, an immutable record.

    kind is one of FACTOR, NO_FACTOR_CYCLE, BUDGET_EXHAUSTED, CANCELLED.
    iterations counts advances of the primary sequence in this call,
    including any single-step replay of a collapsed batch.  walk is where
    the walk stopped (the lifetime count is walk.walked); it takes no part
    in equality, hashing or repr, which use kind, iterations and factor.
    """

    __slots__ = ()

    def __eq__(self, other):
        return self[:3] == other[:3] if isinstance(other, RhoOutcome) else NotImplemented

    __ne__ = object.__ne__  # tuple's own would compare the walks too

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        return f"RhoOutcome(kind={self.kind!r}, iterations={self.iterations!r}, factor={self.factor!r})"

    @property
    def found(self) -> bool:
        return self.kind == FACTOR


def _floyd(n: int, c: int):
    def advance(state, cap):
        tort, hare = state
        q = 1
        for steps in range(1, cap + 1):
            tort = (tort * tort + c) % n
            hare = (hare * hare + c) % n
            hare = (hare * hare + c) % n
            diff = tort - hare
            if diff == 0:
                return (tort, hare), q, steps, True
            q = q * (diff if diff > 0 else -diff) % n
        return (tort, hare), q, cap, False

    return advance


def _brent(n: int, c: int):
    def advance(state, cap):
        x, y, r, k = state
        q = 1
        if k < r:
            span = min(cap, r - k)
            for _ in range(span):
                y = (y * y + c) % n
        else:
            span = min(cap, 2 * r - k)
            for _ in range(span):
                y = (y * y + c) % n
                diff = x - y
                q = q * (diff if diff > 0 else -diff) % n
        k += span
        if k == 2 * r:
            x, r, k = y, 2 * r, 0
        return (x, y, r, k), q, span, False

    return advance


# Each detector's advance factory, and what follows (x0, x0) in its start
# state: Floyd's (tort, hare), Brent's (x, y, r, k).
DETECTORS = {"floyd": (_floyd, ()), "brent": (_brent, (1, 0))}


def start(detector: str, params: RhoParams) -> Walk:
    """A fresh walk of the named detector from params.x0, with walked=0."""
    step, rest = DETECTORS[detector]
    return Walk(step, params, (params.x0, params.x0, *rest), 0)


def resume(n: int, walk: Walk, cancel=None) -> RhoOutcome:
    """Walk on from where walk stopped, on n, one batch at a time.

    n is the walk's own n, or the divisor that walk.over reduced it to.
    A budget walk.params.max_iters counts the walk.walked steps already
    taken; None walks on until a factor, the cycle or a cancel.  The
    outcome's iterations count only the steps of this call.
    walk.step(n, c) returns advance, and advance(state, cap) takes at most
    cap steps from state and returns (state, q, steps, met): q is the
    product mod n of the differences the detector compared in those steps
    (1 if it compared none), and met says the two pointers became equal,
    which ends the walk.  Per batch the driver polls cancel, takes one gcd
    of q, and when that gcd is n replays the batch from its start state
    with advance(state, 1) to find the step where a factor first appeared.
    The poll is cancel(steps), with the steps walked in this call, and a
    true result stops the walk at that batch boundary; cancel None never
    stops it.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"attempt expects an odd n >= 3, got {n}")
    params = walk.params
    params.validate_for(n)
    advance = walk.step(n, params.c)
    batch = params.gcd_batch
    budget = math.inf if params.max_iters is None else params.max_iters
    state = walk.state
    walked = iters = walk.walked
    kind, factor = BUDGET_EXHAUSTED, None
    while iters < budget:
        if cancel is not None and cancel(iters - walked):
            kind = CANCELLED
            break
        begin = state
        state, q, steps, met = advance(state, min(batch, budget - iters))
        iters += steps
        d = gcd(q, n)
        if d == n:
            # The whole batch collapsed.  Replay it one gcd per step; the
            # replayed steps count as iterations too.
            state = begin
            for _ in range(steps):
                state, q, _, met = advance(state, 1)
                iters += 1
                d = gcd(q, n)
                if d != 1:
                    break
        if 1 < d < n:
            kind, factor = FACTOR, d
            break
        if d == n or met:
            # The pointers met, or the sequence mod n cycled, with no
            # factor on the way: this c is a dud.
            kind = NO_FACTOR_CYCLE
            break
    return RhoOutcome(kind, iters - walked, factor, walk._replace(state=state, walked=iters))


def rho_attempt(n: int, params: RhoParams, cancel=None) -> RhoOutcome:
    """One Floyd-paired rho attempt on n: resume of a fresh Floyd walk.

    Each iteration advances the tortoise once and the hare twice and folds
    |tortoise - hare| into the batch product.  cancel, if given, is called
    as cancel(steps) once per gcd batch with the steps walked so far in
    this call, and the attempt stops as cancelled when it returns true, so
    cancellation latency is bounded by the batch size plus scheduling
    delay.
    """
    return resume(n, start("floyd", params), cancel)


def brent_attempt(n: int, params: RhoParams, cancel=None) -> RhoOutcome:
    """Brent-variant attempt: same contract as rho_attempt.

    The walk runs in phases of 2r fast-pointer steps, r doubling each
    phase: the first r steps are not compared, the last r are compared
    against x, the value at the phase start.  The slow pointer thus
    teleports instead of walking, saving a third of the polynomial
    evaluations.  iterations counts fast-pointer advances.
    """
    return resume(n, start("brent", params), cancel)
