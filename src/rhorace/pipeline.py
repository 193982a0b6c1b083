"""Full factorization driver: pre-pass, primality gate, race, recurse.

factorize() strips small primes by trial division, then keeps a work stack
of cofactors: anything probably prime is recorded, anything composite is
split by a race and both parts go back on the stack.  Both parts of every
split are strictly smaller than what was split, so the stack always shrinks.
When a race splits m into d and m/d, the race on m/d resumes the workers'
walks reduced mod m/d instead of starting new ones, a never-forked worker's
untouched walk among them; d, prime or not, starts from fresh constants.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from types import SimpleNamespace

from .numeric import is_probable_prime
from .race import FactorSearchExhausted, RaceConfig, race_factor
from .sieve import PrimeTable, load_table, trial_divide


@functools.cache
def default_table() -> PrimeTable:
    """The shared pre-pass table (primes <= 1e6), loaded once per process
    from the package's committed table file."""
    return load_table()


class PipelineStats(SimpleNamespace):
    """Seconds per layer of one factorize call, and its races.

    This is the package's only clock: bench records and factor --json
    report total_s, which leaves out the one-time load of the table.  The
    default table's primes list is built on first use, so the first call
    in a process whose pre-pass scans a block pays that build (about 20 ms
    for primes <= 1e6) in its trial_division_s.  races holds each race's
    RaceOutcome, in the order run.  Stats compare and print by their
    fields, like Factorization.
    """

    def __init__(self, trial_division_s=0.0, primality_s=0.0, race_s=0.0, total_s=0.0, races=None):
        self.trial_division_s = trial_division_s
        self.primality_s = primality_s
        self.race_s = race_s
        self.total_s = total_s
        self.races = [] if races is None else races


class Factorization(SimpleNamespace):
    """input == product of p**k over factors, every p probably prime.

    stats defaults to a fresh PipelineStats().
    """

    def __init__(self, input, factors, stats=None):
        super().__init__(input=input, factors=factors, stats=PipelineStats() if stats is None else stats)

    def ordered(self) -> list[tuple[int, int]]:
        """(prime, multiplicity) pairs in ascending prime order."""
        return sorted(self.factors.items())

    def product(self) -> int:
        out = 1
        for p, k in self.factors.items():
            out *= p**k
        return out


class FactorizationIncomplete(RuntimeError):
    """The race retries ran out on some cofactor.

    partial holds every prime confirmed before the failure; stubborn is the
    cofactor that resisted; pending lists every cofactor not yet resolved
    (stubborn first), so partial.product() * product(pending) == the input.
    The entries after stubborn were never tested, so some may be prime.
    It is a RuntimeError, as a failed race is, so a caller that reports
    runtime failures needs no handler of its own for it.
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
    every retry round (astronomically unlikely without a budget).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        table = default_table()
    t_start = time.perf_counter()
    stats = PipelineStats()
    counts: Counter[int] = Counter()

    t0 = time.perf_counter()
    small, cofactor = trial_divide(n, table)
    stats.trial_division_s = time.perf_counter() - t0
    counts.update(small)

    # Each entry is a cofactor and the walks to race it with, or None.
    stack = [(cofactor, None)] if cofactor > 1 else []
    try:
        while stack:
            m, walks = stack.pop()
            t0 = time.perf_counter()
            prime = is_probable_prime(m)
            stats.primality_s += time.perf_counter() - t0
            if prime:
                counts[m] += 1
                continue
            t0 = time.perf_counter()
            try:
                outcome = race_factor(m, config, walks)
            except FactorSearchExhausted as exc:
                partial = Factorization(n, dict(counts), stats)
                raise FactorizationIncomplete(partial, m, [m, *(c for c, _ in stack)]) from exc
            finally:
                stats.race_s += time.perf_counter() - t0
            stats.races.append(outcome)
            d = outcome.factor
            stack.append((d, None))
            stack.append((m // d, outcome.walks_over(m // d)))
        return Factorization(n, dict(counts), stats)
    finally:  # after each race's own finally, so total_s covers its race_s
        stats.total_s = time.perf_counter() - t_start


def verify(result: Factorization) -> bool:
    """Recompute both invariants from scratch.

    True iff the factors multiply back to the input and every base passes
    its own primality test.  Trusts nothing recorded during the run.
    """
    if any(p < 2 or k < 1 for p, k in result.factors.items()) or result.product() != result.input:
        return False
    return all(is_probable_prime(p) for p in result.factors)
