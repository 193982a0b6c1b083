"""Full factorization driver: pre-pass, primality gate, race, recurse.

factorize() strips small primes by trial division, then keeps a work stack
of cofactors: anything probably prime is recorded, anything composite is
split by a race and both parts go back on the stack.  Both parts of every
split are strictly smaller than what was split, so the stack always shrinks.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field

from .numeric import is_probable_prime
from .race import FactorSearchExhausted, RaceConfig, RaceOutcome, race_factor
from .sieve import DEFAULT_LIMIT, PrimeTable, sieve, trial_divide


@functools.cache
def default_table() -> PrimeTable:
    """The shared pre-pass table (primes <= 1e6), built once per process."""
    return sieve(DEFAULT_LIMIT)


@dataclass
class PipelineStats:
    trial_division_s: float = 0.0
    primality_s: float = 0.0
    race_s: float = 0.0
    total_s: float = 0.0
    races: list[RaceOutcome] = field(default_factory=list)


@dataclass
class Factorization:
    """input == product of p**k over factors, every p probably prime."""

    input: int
    factors: dict[int, int]
    stats: PipelineStats = field(default_factory=PipelineStats)

    def ordered(self) -> list[tuple[int, int]]:
        """(prime, multiplicity) pairs in ascending prime order."""
        return sorted(self.factors.items())

    def product(self) -> int:
        out = 1
        for p, k in self.factors.items():
            out *= p**k
        return out


class FactorizationIncomplete(Exception):
    """The race retries ran out on some cofactor.

    partial holds every prime confirmed before the failure; stubborn is the
    cofactor that resisted; pending lists all unresolved composites
    (stubborn first), so partial.product() * product(pending) == the input.
    """

    def __init__(self, partial: Factorization, stubborn: int, pending: list[int]):
        super().__init__(f"factor search exhausted on cofactor {stubborn}")
        self.partial = partial
        self.stubborn = stubborn
        self.pending = pending


def factorize(
    n: int,
    config: RaceConfig | None = None,
    table: PrimeTable | None = None,
) -> Factorization:
    """Complete prime factorization of n >= 1, with multiplicities.

    The result is independent of worker count and schedule: whichever factor
    a race happens to win with, the recursion refines it to the same prime
    multiset.  Raises FactorizationIncomplete if some cofactor survives
    every retry round (astronomically unlikely at sane budgets).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if config is None:
        config = RaceConfig()
    if table is None:
        table = default_table()
    t_start = time.perf_counter()
    stats = PipelineStats()
    counts: Counter[int] = Counter()

    t0 = time.perf_counter()
    small, cofactor = trial_divide(n, table)
    stats.trial_division_s = time.perf_counter() - t0
    counts.update(small)

    stack = [cofactor] if cofactor > 1 else []
    while stack:
        m = stack.pop()
        t0 = time.perf_counter()
        prime = is_probable_prime(m)
        stats.primality_s += time.perf_counter() - t0
        if prime:
            counts[m] += 1
            continue
        t0 = time.perf_counter()
        try:
            outcome = race_factor(m, config)
        except FactorSearchExhausted as exc:
            stats.race_s += time.perf_counter() - t0
            stats.total_s = time.perf_counter() - t_start
            partial = Factorization(n, dict(counts), stats)
            raise FactorizationIncomplete(partial, m, [m, *stack]) from exc
        stats.race_s += time.perf_counter() - t0
        stats.races.append(outcome)
        stack.append(outcome.factor)
        stack.append(m // outcome.factor)
    stats.total_s = time.perf_counter() - t_start
    return Factorization(n, dict(counts), stats)


def verify(result: Factorization) -> bool:
    """Recompute both invariants from scratch.

    True iff the factors multiply back to the input and every base passes
    its own primality test.  Trusts nothing recorded during the run.
    """
    prod = 1
    for p, k in result.factors.items():
        if p < 2 or k < 1:
            return False
        prod *= p**k
    if prod != result.input:
        return False
    return all(is_probable_prime(p) for p in result.factors)
