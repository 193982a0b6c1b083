"""Sieve of Eratosthenes and the small-prime trial division pre-pass.

The sieve is a machine-range tool: it feeds the pre-pass that strips easy
factors before any rho work starts, so the racers only ever see inputs with
no small prime divisors.

The pre-pass does not try every prime on its own.  A PrimeTable keeps the
product of each block of BLOCK_SIZE consecutive primes, and trial_divide
takes one gcd of the cofactor against each block's product; only a block
whose gcd is not 1 is scanned prime by prime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

DEFAULT_LIMIT = 10**6
MEMORY_CAP = 10**8  # one flag byte per candidate
BLOCK_SIZE = 256  # primes per gcd block of the pre-pass


@dataclass
class PrimeTable:
    """Ascending primes <= limit.  Treat as immutable; safe to share.

    blocks holds (index of the block's first prime, product of the block's
    primes) for consecutive blocks of BLOCK_SIZE primes, the last one
    possibly shorter.  It is derived from primes, so it takes no part in
    repr or equality.
    """

    limit: int
    primes: list[int]
    blocks: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.blocks = [
            (i, math.prod(self.primes[i : i + BLOCK_SIZE]))
            for i in range(0, len(self.primes), BLOCK_SIZE)
        ]


def sieve(limit: int) -> PrimeTable:
    """All primes <= limit, marking composites from p*p upward in steps of p.

    The outer loop stops once p*p exceeds the limit: any composite <= limit
    has a prime divisor at most sqrt(limit).
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > MEMORY_CAP:
        raise ValueError(f"sieve limit {limit} exceeds memory cap {MEMORY_CAP}")
    if limit < 2:
        return PrimeTable(limit, [])
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return PrimeTable(limit, list(itertools.compress(range(limit + 1), flags)))


def trial_divide(n: int, table: PrimeTable) -> tuple[dict[int, int], int]:
    """Peel every prime factor <= table.limit off n.

    Returns (factors, cofactor) with n == product(p**k) * cofactor and the
    cofactor guaranteed free of prime divisors <= table.limit.  The scan
    stops early once p*p exceeds the remaining cofactor: at that point the
    cofactor is either 1 or prime, and if it still fits under the table
    limit it is emitted as a factor instead of returned.

    Blocks whose gcd with the cofactor is 1 are skipped whole, and the scan
    of any other block ends once the primes of that gcd are peeled off.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors: dict[int, int] = {}
    m = n
    primes = table.primes
    for start, product in table.blocks:
        if primes[start] * primes[start] > m:
            break
        g = math.gcd(m, product)
        if g == 1:
            continue
        # g is the product of the block's primes that divide m, each once.
        for p in primes[start : start + BLOCK_SIZE]:
            if p * p > m:
                break
            if g % p == 0:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                factors[p] = k
                g //= p
                if g == 1:
                    break
    if 1 < m <= table.limit:
        # No prime <= sqrt(m) divides m, so m is prime and under the limit.
        factors[m] = 1
        m = 1
    return factors, m
