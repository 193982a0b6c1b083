"""Sieve of Eratosthenes and the small-prime trial division pre-pass.

The sieve is a machine-range tool: it feeds the pre-pass that strips easy
factors before any rho work starts, so the racers only ever see inputs with
no small prime divisors.

The pre-pass does not try every prime on its own (D. J. Bernstein, "How to
find smooth parts of integers", 2004).  A PrimeTable keeps the product of
each block of BLOCK_SIZE consecutive primes, and trial_divide takes one gcd
of the cofactor against each block's product: 39 gcds for the 78,498 primes
below 10**6.  A gcd that is one prime is peeled off at once; only a block
whose gcd holds two or more primes is scanned prime by prime, and only
until what is left of its gcd is one prime.

No block product is ever divided by n.  Each product is stored as chunks
c_0, c_1, ... of CHUNK_BITS bits, low chunk first, so that it equals
sum(c_j * 2**(CHUNK_BITS*j)).  trial_divide builds t_j = 2**(CHUNK_BITS*j)
mod n once per call, each from the one before by one multiplication, and
sum(c_j * t_j) is then congruent to the block's product mod n: a few
multiplications of a chunk by a number below n, where a long division would
walk the whole product.  The congruence holds mod every divisor of n too, so
as primes are peeled off and the cofactor m shrinks, gcd(m, sum) is still
gcd(m, product), and the t_j can be reduced mod m: later blocks then
multiply their chunks by smaller numbers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

DEFAULT_LIMIT = 10**6
MEMORY_CAP = 10**8  # one flag byte per candidate
BLOCK_SIZE = 2048  # primes per gcd block of the pre-pass
CHUNK_BITS = 1920  # bits per stored chunk of a block product: 64 CPython digits
WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)  # the residues mod 30 prime to 30


@dataclass
class PrimeTable:
    """Ascending primes <= limit.  Treat as immutable; safe to share.

    blocks holds (index of the block's first prime, chunks) for consecutive
    blocks of BLOCK_SIZE primes, the last one possibly shorter.  chunks is
    the product of the block's primes cut into CHUNK_BITS-bit pieces, low
    piece first: the product is sum(c << CHUNK_BITS*j for j, c in
    enumerate(chunks)), and every piece but the last is below
    2**CHUNK_BITS.  Reducing that sum mod n needs only multiplications (see
    the module docstring).  width is the most chunks any block has, so the
    number of powers of two trial_divide reduces mod n.  blocks and width
    are derived from primes, so they take no part in repr or equality.
    """

    limit: int
    primes: list[int]
    blocks: list[tuple[int, list[int]]] = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = (1 << CHUNK_BITS) - 1
        self.blocks = []
        for start in range(0, len(self.primes), BLOCK_SIZE):
            # A balanced product tree, products of 64 primes multiplied in
            # pairs, costs less than one sequential product over the block.
            block = self.primes[start : start + BLOCK_SIZE]
            products = [math.prod(block[i : i + 64]) for i in range(0, len(block), 64)]
            while len(products) > 1:
                products = [math.prod(products[k : k + 2]) for k in range(0, len(products), 2)]
            (product,) = products
            shifts = range(0, product.bit_length(), CHUNK_BITS)
            self.blocks.append((start, [product >> shift & mask for shift in shifts]))
        self.width = max((len(chunks) for _, chunks in self.blocks), default=0)


def sieve(limit: int) -> PrimeTable:
    """All primes <= limit, marking odd composites from p*p upward in steps of 2p.

    Only odd candidates get a flag: flags[i] stands for 2*i + 1.  The outer
    loop stops once p*p exceeds the limit: any composite <= limit has a
    prime divisor at most sqrt(limit).  The primes are read through a mod-30
    wheel: only the 8 residues prime to 30 can hold a prime above 5, and
    residue r's flags sit 15 apart from flags[r // 2], so 2, 3 and 5 are
    prepended and 8 of every 30 numbers become int objects, not 15.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > MEMORY_CAP:
        raise ValueError(f"sieve limit {limit} exceeds memory cap {MEMORY_CAP}")
    if limit < 2:
        return PrimeTable(limit, [])
    flags = bytearray([1]) * ((limit + 1) // 2)
    flags[0] = 0  # 1 is not prime
    p = 3
    while p * p <= limit:
        if flags[p // 2]:
            # The odd multiples of p from p*p on sit p flags apart.
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
        p += 2
    primes = [p for p in (2, 3, 5) if p <= limit]
    for r in WHEEL:
        primes += itertools.compress(range(r, limit + 1, 30), flags[r // 2 :: 15])
    primes.sort()
    return PrimeTable(limit, primes)


def trial_divide(n: int, table: PrimeTable) -> tuple[dict[int, int], int]:
    """Peel every prime factor <= table.limit off n.

    Returns (factors, cofactor) with n == product(p**k) * cofactor and the
    cofactor guaranteed free of prime divisors <= table.limit.  The scan
    stops early once p*p exceeds the remaining cofactor: at that point the
    cofactor is either 1 or prime, and if it still fits under the table
    limit it is emitted as a factor instead of returned.

    Blocks whose gcd with the cofactor is 1 are skipped whole.  A gcd that
    is a single prime is peeled off at once; any other block is scanned
    until what is left of that gcd is a single prime, which is peeled off
    at once too.  Each block's gcd is taken against a residue of its
    product built from its chunks and powers of two mod the cofactor (see
    the module docstring).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors: dict[int, int] = {}
    m = n
    primes = table.primes
    step = pow(2, CHUNK_BITS, n)
    ts = [1]
    for _ in range(table.width - 1):
        ts.append(ts[-1] * step % n)
    for start, chunks in table.blocks:
        square = primes[start] * primes[start]
        if square > m:
            break
        # Congruent to the block's product mod n, hence mod m, which divides n.
        g = math.gcd(m, sum(map(operator.mul, chunks, ts)))
        if g == 1:
            continue
        scan = iter(primes[start : start + BLOCK_SIZE])
        while g > 1:
            # g is the product of the block's primes that divide m, each once,
            # so below the square of the block's first prime it is one of them.
            p = g if g < square else next(q for q in scan if g % q == 0)
            if p * p > m:
                break
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            factors[p] = k
            g //= p
        # Still congruent mod m, and later blocks multiply smaller numbers.
        ts = [t % m for t in ts]
    if 1 < m <= table.limit:
        # No prime <= sqrt(m) divides m, so m is prime and under the limit.
        factors[m] = 1
        m = 1
    return factors, m
