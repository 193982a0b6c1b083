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

The table for DEFAULT_LIMIT is committed data, not rebuilt per process:
TABLE_PATH holds its block products and each block's first prime, which is
all trial_divide reads until it scans a block.  load_table reads it in a few
milliseconds, where sieve(DEFAULT_LIMIT) takes tens; the primes list of a
loaded table is built on first access, once, by the same sieve loop.  The
file is encode_table(sieve(DEFAULT_LIMIT)), and a test checks that byte for
byte.  After a change to the sieve, BLOCK_SIZE or CHUNK_BITS, regenerate it
from the root of a checkout with

    PYTHONPATH=src python -c "from rhorace.sieve import *; open(TABLE_PATH, 'wb').write(encode_table(sieve(DEFAULT_LIMIT)))"

The format, all integers little-endian: a header of three 4-byte words,
limit, BLOCK_SIZE and CHUNK_BITS; then per block its first prime and the
byte length of its product, 4 bytes each, and the product's bytes.
"""

from __future__ import annotations

import itertools
import math
import operator
import os

from .numeric import is_probable_prime

DEFAULT_LIMIT = 10**6
MEMORY_CAP = 10**8  # one flag byte per candidate
BLOCK_SIZE = 2048  # primes per gcd block of the pre-pass
CHUNK_BITS = 1920  # bits per stored chunk of a block product: 64 CPython digits
WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)  # the residues mod 30 prime to 30
TABLE_PATH = os.path.join(os.path.dirname(__file__), "prepass_table.bin")
WORD = 4  # bytes per integer of the table file's header and block entries


class PrimeTable:
    """Ascending primes <= limit.  Treat as immutable; safe to share.

    A table from load_table has no primes list until primes is first read;
    that read builds it once (see the module docstring).

    blocks holds (index of the block's first prime, chunks) for consecutive
    blocks of BLOCK_SIZE primes, the last one possibly shorter.  chunks is
    the product of the block's primes cut into CHUNK_BITS-bit pieces, low
    piece first: the product is sum(c << CHUNK_BITS*j for j, c in
    enumerate(chunks)), and every piece but the last is below
    2**CHUNK_BITS.  Reducing that sum mod n needs only multiplications (see
    the module docstring).  firsts holds each block's first prime.  width is
    the most chunks any block has, so the number of powers of two
    trial_divide reduces mod n.  blocks, firsts and width are derived from
    primes, so they take no part in repr or equality: two tables are equal
    when they are both PrimeTables with equal limit and primes.
    """

    def __init__(self, limit: int, primes: list[int]) -> None:
        self.limit = limit
        self.primes = primes
        block_products = []
        for start in range(0, len(self.primes), BLOCK_SIZE):
            # A balanced product tree, products of 64 primes multiplied in
            # pairs, costs less than one sequential product over the block.
            block = self.primes[start : start + BLOCK_SIZE]
            products = [math.prod(block[i : i + 64]) for i in range(0, len(block), 64)]
            while len(products) > 1:
                products = [math.prod(products[k : k + 2]) for k in range(0, len(products), 2)]
            (product,) = products
            block_products.append(product)
        self._set_blocks(block_products, self.primes[::BLOCK_SIZE])

    def _set_blocks(self, products: list[int], firsts: list[int]) -> None:
        """Derive blocks, firsts and width from each block's product and first prime."""
        mask = (1 << CHUNK_BITS) - 1
        self.blocks = []
        for i, product in enumerate(products):
            shifts = range(0, product.bit_length(), CHUNK_BITS)
            self.blocks.append((BLOCK_SIZE * i, [product >> shift & mask for shift in shifts]))
        self.firsts = firsts
        self.width = max((len(chunks) for _, chunks in self.blocks), default=0)

    def __getattr__(self, name: str):
        # Only reached for an attribute the instance lacks: a loaded table's
        # primes, built here on first read and kept.
        if name != "primes":
            raise AttributeError(name)
        self.primes = _primes_upto(self.limit)
        return self.primes

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.limit, self.primes) == (other.limit, other.primes)

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit!r}, primes={self.primes!r})"


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
    return PrimeTable(limit, _primes_upto(limit))


def _primes_upto(limit: int) -> list[int]:
    """The primes list of sieve(limit), for 0 <= limit <= MEMORY_CAP."""
    if limit < 2:
        return []
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
    return primes


def encode_table(table: PrimeTable) -> bytes:
    """The table file's bytes for table (format in the module docstring)."""
    out = [v.to_bytes(WORD, "little") for v in (table.limit, BLOCK_SIZE, CHUNK_BITS)]
    for (_, chunks), first in zip(table.blocks, table.firsts):
        product = sum(c << CHUNK_BITS * j for j, c in enumerate(chunks))
        body = product.to_bytes((product.bit_length() + 7) // 8, "little")
        out += [first.to_bytes(WORD, "little"), len(body).to_bytes(WORD, "little"), body]
    return b"".join(out)


def load_table(path: str = TABLE_PATH) -> PrimeTable:
    """The table encoded in the file at path, without its primes list.

    Raises ValueError if the header's limit, BLOCK_SIZE and CHUNK_BITS are
    not DEFAULT_LIMIT and this module's, or if the file ends inside a block.
    """
    with open(path, "rb") as f:
        data = f.read()
    header = tuple(_word(data, pos) for pos in range(0, 3 * WORD, WORD))
    if header != (DEFAULT_LIMIT, BLOCK_SIZE, CHUNK_BITS):
        raise ValueError(
            f"{path}: header (limit, BLOCK_SIZE, CHUNK_BITS) = {header}, expected"
            f" {(DEFAULT_LIMIT, BLOCK_SIZE, CHUNK_BITS)}; regenerate it (see rhorace.sieve)"
        )
    products, firsts = [], []
    pos = 3 * WORD
    while pos < len(data):
        body = pos + 2 * WORD
        end = body + _word(data, pos + WORD)
        if end > len(data):
            raise ValueError(f"{path}: ends inside block {len(products)}")
        products.append(int.from_bytes(data[body:end], "little"))
        firsts.append(_word(data, pos))
        pos = end
    table = object.__new__(PrimeTable)  # no primes list: built on first read
    table.limit = DEFAULT_LIMIT
    table._set_blocks(products, firsts)
    return table


def _word(data: bytes, pos: int) -> int:
    return int.from_bytes(data[pos : pos + WORD], "little")


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
    step = pow(2, CHUNK_BITS, n)
    ts = [1]
    for _ in range(table.width - 1):
        ts.append(ts[-1] * step % n)
    for (start, chunks), first in zip(table.blocks, table.firsts):
        square = first * first
        if square > m:
            break
        # Congruent to the block's product mod n, hence mod m, which divides n.
        g = math.gcd(m, sum(map(operator.mul, chunks, ts)))
        if g == 1:
            continue
        # g is the product of the block's primes that divide m, each once, so
        # below the square of the block's first prime it is one of them.
        # Block 0's square is 4, so there a prime g under the limit is one
        # of them too; Miller-Rabin is exact that far down.
        lone = g < square or g <= table.limit and is_probable_prime(g)
        # Only a gcd of two or more primes needs the block's primes:
        # reading table.primes builds a loaded table's list on first use.
        scan = None if lone else iter(table.primes[start : start + BLOCK_SIZE])
        while g > 1:
            p = g if lone or g < square else next(q for q in scan if g % q == 0)
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
